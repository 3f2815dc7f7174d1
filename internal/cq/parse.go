package cq

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ParseQuery parses a conjunctive query written as a comma- (or "∧"- or
// "&"-) separated list of atoms:
//
//	R(x, y), S(y, z), T(z, 'paris')
//
// Identifiers are variables; single-quoted strings and tokens starting with
// a digit are constants.
func ParseQuery(s string) (Query, error) {
	var q Query
	rest := strings.TrimSpace(s)
	for rest != "" {
		atom, remainder, err := parseAtom(rest)
		if err != nil {
			return Query{}, err
		}
		q.Atoms = append(q.Atoms, atom)
		rest = strings.TrimSpace(remainder)
		for _, sep := range []string{",", "∧", "&&", "&"} {
			if strings.HasPrefix(rest, sep) {
				rest = strings.TrimSpace(rest[len(sep):])
				break
			}
		}
	}
	if len(q.Atoms) == 0 {
		return Query{}, fmt.Errorf("cq: empty query")
	}
	return q, nil
}

func parseAtom(s string) (Atom, string, error) {
	rel, inner, rest, err := splitAtom(s)
	if err != nil {
		return Atom{}, "", err
	}
	var args []Term
	for _, tok := range strings.Split(inner, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		args = append(args, parseTerm(tok))
	}
	return Atom{Rel: rel, Args: args}, rest, nil
}

// splitAtom cuts the atom at the start of s into its relation name, the text
// between its parentheses, and what follows it.
func splitAtom(s string) (rel, inner, rest string, err error) {
	open := strings.Index(s, "(")
	if open < 0 {
		return "", "", "", fmt.Errorf("cq: expected '(' in %q", s)
	}
	rel = strings.TrimSpace(s[:open])
	if rel == "" || !isIdent(rel) {
		return "", "", "", fmt.Errorf("cq: bad relation name %q", rel)
	}
	close := strings.Index(s[open:], ")")
	if close < 0 {
		return "", "", "", fmt.Errorf("cq: missing ')' in %q", s)
	}
	return rel, s[open+1 : open+close], s[open+close+1:], nil
}

func parseTerm(tok string) Term {
	if strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) >= 2 {
		return C(tok[1 : len(tok)-1])
	}
	if tok != "" && unicode.IsDigit(rune(tok[0])) {
		return C(tok)
	}
	return V(tok)
}

func isIdent(s string) bool {
	for i, r := range s {
		if unicode.IsLetter(r) || r == '_' || (i > 0 && (unicode.IsDigit(r) || r == '\'')) {
			continue
		}
		return false
	}
	return len(s) > 0
}

// ParseDatabase reads a database with one ground atom per line:
//
//	R(a, b)
//	S(b, c)   # comments and blank lines are ignored
//
// It reads all of r and parses it as ParseDatabaseString does.
func ParseDatabase(r io.Reader) (Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseDatabaseString(string(data))
}

// ParseDatabaseString is ParseDatabase over a string, in one pass that
// slices it: every relation name and constant is a substring of s, and every
// tuple a piece of one slab sized up front, so no line costs an allocation of
// its own.
func ParseDatabaseString(s string) (Database, error) {
	db := Database{}
	// Each line's atom has at most one constant more than it has commas.
	slab := make([]string, 0, strings.Count(s, ",")+strings.Count(s, "\n")+1)
	for line := 1; s != ""; line++ {
		text, after, _ := strings.Cut(s, "\n")
		s = after
		text = strings.TrimSpace(text)
		if i := strings.Index(text, "#"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		rel, inner, rest, err := splitAtom(text)
		if err != nil {
			return nil, fmt.Errorf("cq: line %d: %v", line, err)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("cq: line %d: trailing input %q", line, rest)
		}
		start := len(slab)
		for more := true; more; {
			var tok string
			tok, inner, more = strings.Cut(inner, ",")
			if tok = strings.TrimSpace(tok); tok != "" {
				slab = append(slab, parseTerm(tok).Name) // in a database file every token is a constant
			}
		}
		db.Add(rel, slab[start:len(slab):len(slab)]...)
	}
	return db, nil
}
