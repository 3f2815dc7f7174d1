package hyperbench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCensusGolden pins the ghw census, entry by entry (name, family, size,
// ghw bounds, exactness), so that a change to a width search or its budget
// cannot move Table 1 unnoticed. It checks the corpus bench/'s batch.corpus
// workload answers (seed 5, 6 per family) and, without -short, the default
// corpus of cmd/experiments' Table 1 and cmd/hyperbench (seed 1, 24 per
// family). The golden files are cmd/hyperbench's CSV: after a deliberate
// change, `go run ./cmd/hyperbench -seed 5 -per 6 -csv
// internal/hyperbench/testdata/census-seed5-per6.csv` rewrites the first.
func TestCensusGolden(t *testing.T) {
	cases := []struct {
		file string
		opts Options
		// table1 is Table1(5) of the corpus, nil where it is not pinned.
		table1 []Table1Row
	}{
		{"census-seed5-per6.csv", Options{Seed: 5, PerFamily: 6, MaxWidth: 5}, nil},
		{"census-seed1-per24.csv", Options{Seed: 1, PerFamily: 24, MaxWidth: 5}, []Table1Row{
			{K: 1, Definite: 136, Upper: 136},
			{K: 2, Definite: 72, Upper: 72},
			{K: 3, Definite: 40, Upper: 45},
			{K: 4, Definite: 18, Upper: 26},
			{K: 5, Definite: 2, Upper: 9},
		}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.file, ".csv"), func(t *testing.T) {
			if testing.Short() && tc.opts.PerFamily > 6 {
				t.Skip("full-size corpus: runs without -short")
			}
			c, err := Generate(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotLines, wantLines := strings.Split(c.CSV(), "\n"), strings.Split(string(want), "\n")
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
			}
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					t.Errorf("%s line %d: got %q, want %q", path, i+1, gotLines[i], wantLines[i])
				}
			}
			if tc.table1 != nil {
				if rows := c.Table1(5); !reflect.DeepEqual(rows, tc.table1) {
					t.Errorf("Table 1 = %+v, want %+v", rows, tc.table1)
				}
			}
		})
	}
}
