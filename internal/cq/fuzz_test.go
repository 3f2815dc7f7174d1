package cq

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseQuery drives arbitrary text through the query parser, the one a
// client's query reaches first: no input may panic, and a query that parses
// prints (Query.String) to text that parses back to the same query.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"R(x, y), S(y, z), T(z, 'paris')",
		"E(x,y) ∧ E(y,z) && F(z,'1') & G()",
		"R(x,x), S(x,1y), R(y,'k')",
		"R('a,b'), S(''), T(')",
		"R(x", "(x)", "R(x) S(y)", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		if len(q.Atoms) == 0 {
			t.Fatalf("%q parsed to an empty query", s)
		}
		for _, a := range q.Atoms {
			if !isIdent(a.Rel) {
				t.Fatalf("%q parsed to relation name %q", s, a.Rel)
			}
		}
		again, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", s, q.String(), err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("%q printed as %q, which parses to %v", s, q.String(), again)
		}
	})
}

// FuzzParseDatabase drives arbitrary text through the database parser: no
// input may panic, and a database that parses, written back one quoted
// ground atom per line, parses back to the same database.
func FuzzParseDatabase(f *testing.F) {
	for _, s := range []string{
		"R(a, b)\nS(b, c)   # comment\n\n",
		"R('x y', '')\nR(1,2)\r\nT()",
		"R(a\nS(", "# only a comment", "R(a) trailing",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		db, err := ParseDatabaseString(s)
		if err != nil {
			return
		}
		var b strings.Builder
		for rel, tuples := range db {
			if !isIdent(rel) {
				t.Fatalf("%q parsed to relation name %q", s, rel)
			}
			for _, tuple := range tuples {
				quoted := make([]string, len(tuple))
				for i, v := range tuple {
					quoted[i] = "'" + v + "'"
				}
				b.WriteString(rel + "(" + strings.Join(quoted, ",") + ")\n")
			}
		}
		again, err := ParseDatabaseString(b.String())
		if err != nil {
			t.Fatalf("%q written as %q, which does not parse: %v", s, b.String(), err)
		}
		if !reflect.DeepEqual(db, again) {
			t.Fatalf("%q written as %q, which parses to %v, not %v", s, b.String(), again, db)
		}
	})
}
