package cq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// parseDatabaseByLine is the line-at-a-time database parser, a Scanner line,
// a Split and a Term list per line: the reference the one-pass parser must
// agree with, database and error alike.
func parseDatabaseByLine(r io.Reader) (Database, error) {
	db := Database{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.Index(text, "#"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		atom, rest, err := parseAtom(text)
		if err != nil {
			return nil, fmt.Errorf("cq: line %d: %v", line, err)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("cq: line %d: trailing input %q", line, rest)
		}
		vals := make([]string, len(atom.Args))
		for i, t := range atom.Args {
			vals[i] = t.Name
		}
		db.Add(atom.Rel, vals...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// requireSameParse holds ParseDatabaseString to the line-at-a-time
// reference on s: the same database, or the same error text. A line past the
// reference Scanner's 64 KiB limit, which only the reference refuses, is not
// compared.
func requireSameParse(t *testing.T, s string) {
	t.Helper()
	want, wantErr := parseDatabaseByLine(strings.NewReader(s))
	if errors.Is(wantErr, bufio.ErrTooLong) {
		return
	}
	got, err := ParseDatabaseString(s)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %v, line-at-a-time parse says %v", s, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: parsed to %v, line-at-a-time parse gives %v", s, got, want)
	}
}

// TestParseDatabaseMatchesLineByLine: the one-pass parser accepts the
// language the line-at-a-time one did and fails where it failed, with the
// same message and line number — on hand-picked edge cases and on random
// lines assembled from the grammar's pieces and its mistakes.
func TestParseDatabaseMatchesLineByLine(t *testing.T) {
	for _, s := range []string{
		"", "\n", "\n\n\n", "R(a)", "R(a)\n", "R(a)\r\nS(b,c)\r\n", "  R( a , b )  ",
		"R(a, b)\nS(b, c)   # comment\n\n", "R('x y', '')\nR(1,2)\r\nT()",
		"R(a\nS(", "# only a comment", "R(a) trailing", "R(a)\n\nS(b) x\n",
		"R(,,a,,)", "R('a,b')", "R(')", "R(a)#(b)", "(a)", "1R(a)", "R (a)",
		"R(a)(b)", "R(a))", "S(b)\n  # x\nR(a,'#')", "R(\ta\t,\tb\t)\nR(a,b)\n",
	} {
		requireSameParse(t, s)
	}
	pieces := []string{"R", "S_1", "T'", "1", "(", ")", ",", " ", "\t", "\r", "\n", "a", "'q'", "'", "#", "x y", "", "é"}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 3000; n++ {
		var b strings.Builder
		for lines := rng.Intn(5); lines >= 0; lines-- {
			if rng.Intn(3) > 0 { // most lines well-formed, to reach later lines
				fmt.Fprintf(&b, "%s(%s, %s)", pieces[rng.Intn(3)], pieces[11+rng.Intn(3)], pieces[11+rng.Intn(3)])
			}
			for k := rng.Intn(4); k > 0; k-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
			b.WriteString("\n")
		}
		requireSameParse(t, b.String())
	}
}

// TestParseDatabaseAllocations: parsing allocates per input and per
// relation, not per line — a relation's tuple list grows by append, so the
// count grows with the logarithm of the lines, and stays a few dozen where
// a line used to cost four.
func TestParseDatabaseAllocations(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 16_000; i++ {
		fmt.Fprintf(&b, "R(c%d, c%d)\n", i, i+1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseDatabaseString(b.String()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for 16 000 lines", allocs)
	if allocs > 64 {
		t.Fatalf("parsing 16 000 lines allocates %.0f times: allocations grow with the lines", allocs)
	}
}
