package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"d2cq/internal/cq"
)

func mustIntern(t testing.TB, d *Dict, name string) Value {
	t.Helper()
	v, err := d.Intern(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// dictNames lists a dictionary's names in Value order.
func dictNames(d *Dict) []string {
	names := make([]string, d.Len())
	for v := range names {
		names[v] = d.Name(Value(v))
	}
	return names
}

// awkwardNames are the names a byte-arena dictionary could get wrong: the
// empty name, non-ASCII, embedded NUL bytes, a name longer than any probe
// chunk, and prefix pairs that share all but their last bytes.
func awkwardNames() []string {
	return []string{"", "★", "日本語", "a\x00b", "\x00", "a\x00", strings.Repeat("x", 1024),
		strings.Repeat("x", 1023) + "y", "c1", "c10", "c100", "c", "ab", "a"}
}

// randomNames returns n names drawn from a small alphabet, so that many
// repeat and many share prefixes, with the awkward ones mixed in.
func randomNames(rng *rand.Rand, n int) []string {
	names := awkwardNames()
	for len(names) < n {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = "ac1\x00é"[rng.Intn(6)]
		}
		names = append(names, string(b))
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// checkDict holds a dictionary to a map reference: the same Values, handed
// out in insertion order, the same names, and no name it does not hold.
func checkDict(t *testing.T, d *Dict, names []string) {
	t.Helper()
	ref := map[string]Value{}
	for _, name := range names {
		want, seen := ref[name]
		if !seen {
			want = Value(len(ref))
			ref[name] = want
		}
		if got := mustIntern(t, d, name); got != want {
			t.Fatalf("Intern(%q) = %d, want %d", name, got, want)
		}
	}
	if d.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
	}
	for name, want := range ref {
		if got, ok := d.Lookup(name); !ok || got != want {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", name, got, ok, want)
		}
		if got := d.Name(want); got != name {
			t.Fatalf("Name(%d) = %q, want %q", want, got, name)
		}
	}
	for _, absent := range []string{"never", "c1000", "a\x00b\x00", strings.Repeat("x", 1025)} {
		if _, ok := ref[absent]; !ok {
			if v, ok := d.Lookup(absent); ok {
				t.Fatalf("Lookup(%q) found %d for a name never interned", absent, v)
			}
		}
	}
}

// TestDictDifferential holds the dictionary to a map[string]Value over
// random names with many repeats, through several table growths.
func TestDictDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 20, 5_000} {
		checkDict(t, NewDict(), randomNames(rng, n))
	}
}

// TestDictCollisions forces every name onto one probe sequence: distinct
// names must still get distinct Values, found by exact comparison.
func TestDictCollisions(t *testing.T) {
	d := NewDict()
	d.hash = func(string) uint64 { return 42 }
	checkDict(t, d, randomNames(rand.New(rand.NewSource(2)), 300))
}

// TestDictNameStable: strings Name returned alias the arena, so they must
// survive the arena's reallocation by later interns unchanged — and Name
// must not allocate.
func TestDictNameStable(t *testing.T) {
	d := NewDict()
	var held []string
	for _, name := range awkwardNames() {
		held = append(held, d.Name(mustIntern(t, d, name)))
	}
	for i := range 100_000 {
		mustIntern(t, d, fmt.Sprint("later", i))
	}
	for i, name := range awkwardNames() {
		if held[i] != name {
			t.Fatalf("string %d read %q after growth, want %q", i, held[i], name)
		}
	}
	v := mustIntern(t, d, "c10")
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Name(v) }); allocs != 0 {
		t.Fatalf("Name allocates %.0f times per call", allocs)
	}
}

// TestDictConcurrent interns overlapping names from several goroutines that
// also look names up and read them back; under -race this checks the
// locking, and every goroutine must see one Value per name.
func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	const workers, names = 4, 2_000
	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]Value, names)
			for i := range names {
				k := (i + w*names/workers) % names // each worker starts elsewhere
				name := fmt.Sprint("n", k)
				v, err := d.Intern(name)
				if err != nil {
					t.Error(err)
					return
				}
				if back := d.Name(v); back != name {
					t.Errorf("Name(%d) = %q, want %q", v, back, name)
				}
				if l, ok := d.Lookup(name); !ok || l != v {
					t.Errorf("Lookup(%q) = %d,%v, want %d", name, l, ok, v)
				}
				got[w][k] = v
			}
		}()
	}
	wg.Wait()
	if d.Len() != names {
		t.Fatalf("Len = %d, want %d", d.Len(), names)
	}
	for w := 1; w < workers; w++ {
		for k := range names {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d saw Value %d for n%d, worker 0 %d", w, got[w][k], k, got[0][k])
			}
		}
	}
}

// TestDictCodecRoundTrip: a checkpoint preserves every Value of the awkward
// names, and a snapshot whose dictionary repeats a name is refused.
func TestDictCodecRoundTrip(t *testing.T) {
	db, err := Compile(cq.Database{})
	if err != nil {
		t.Fatal(err)
	}
	names := randomNames(rand.New(rand.NewSource(3)), 500)
	for _, name := range names {
		mustIntern(t, db.Dict, name)
	}
	var buf bytes.Buffer
	if err := EncodeDB(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkDict(t, got.Dict, dictNames(db.Dict))

	snap := append([]byte(nil), snapMagic...)
	snap = AppendUvarint(snap, snapFormat)
	snap = AppendUvarint(snap, 3)
	for _, name := range []string{"a", "b", "a"} {
		snap = AppendString(snap, name)
	}
	snap = AppendUvarint(snap, 0)
	if _, err := DecodeDB(bytes.NewReader(snap)); err == nil || !strings.Contains(err.Error(), `repeats "a" (values 0 and 2)`) {
		t.Fatalf("decode of a repeated name: %v", err)
	}
}

// lowerDictLimits lowers the dictionary's limits for one test.
func lowerDictLimits(t *testing.T, values int, bytes int64) {
	oldValues, oldBytes := maxDictValues, maxDictBytes
	maxDictValues, maxDictBytes = values, bytes
	t.Cleanup(func() { maxDictValues, maxDictBytes = oldValues, oldBytes })
}

// TestDictFull: past the Value range (here lowered) every interning path
// refuses with ErrDictFull — a new constant, never a known one — and a
// refused Apply leaves the shared dictionary as it found it, even when some
// of its constants fitted.
func TestDictFull(t *testing.T) {
	lowerDictLimits(t, 4, 16)
	d := NewDict()
	for _, name := range []string{"a", "b", "c", "d"} {
		mustIntern(t, d, name)
	}
	if _, err := d.Intern("e"); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Intern past the limit: %v", err)
	}
	if v := mustIntern(t, d, "c"); v != 2 || d.Len() != 4 {
		t.Fatalf("known constant in a full dictionary: %d, Len %d", v, d.Len())
	}
	if _, err := NewDict().Intern(strings.Repeat("x", 17)); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Intern past the byte limit: %v", err)
	}

	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("R", "c", "d")
	sdb := compileT(t, db)
	if _, err := sdb.Apply(NewDelta().Add("R", "a", "e")); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Apply past the limit: %v", err)
	}
	if _, err := sdb.Apply(NewDelta().Add("R", "d", "a")); err != nil {
		t.Fatalf("Apply of known constants into a full dictionary: %v", err)
	}
	if _, err := sdb.Apply(NewDelta().Remove("R", "a", "b")); err != nil {
		t.Fatalf("a delete needs no room: %v", err)
	}
	// Room for one more: the delta's first new constant goes in, its second
	// does not, and the first is taken back.
	lowerDictLimits(t, 5, 16)
	if _, err := sdb.Apply(NewDelta().Add("R", "a", "x").Add("R", "y", "b")); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Apply past the limit: %v", err)
	}
	if _, ok := sdb.Dict.Lookup("x"); ok || sdb.Dict.Len() != 4 {
		t.Fatalf("refused Apply left %d constants (x interned: %v), want 4", sdb.Dict.Len(), ok)
	}
	for v, name := range []string{"a", "b", "c", "d"} {
		if got, ok := sdb.Dict.Lookup(name); !ok || got != Value(v) {
			t.Fatalf("after a refused Apply, Lookup(%q) = %d,%v, want %d", name, got, ok, v)
		}
	}
	if _, err := sdb.Apply(NewDelta().Add("R", "a", "y")); err != nil {
		t.Fatalf("Apply of one new constant into room for one: %v", err)
	}
	lowerDictLimits(t, 4, 16)

	db.Add("S", "e")
	if _, err := Compile(db); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Compile past the limit: %v", err)
	}
	many := cq.Database{}
	for _, rel := range []string{"N1", "N2", "N3", "N4", "N5"} {
		many.Add(rel) // nullary: no constants, only relation names
	}
	if _, err := Compile(many); !errors.Is(err, ErrDictFull) {
		t.Fatalf("Compile past the relation-name limit: %v", err)
	}

	var buf bytes.Buffer
	if err := EncodeDB(&buf, sdb); err != nil {
		t.Fatal(err)
	}
	lowerDictLimits(t, 3, 16)
	if _, err := DecodeDB(&buf); !errors.Is(err, ErrDictFull) {
		t.Fatalf("DecodeDB past the limit: %v", err)
	}
}

// corpusShapedDB is a seeded database shaped like the degree-2 corpus: 30
// binary relations of 5 000 tuples each over a pool of 5 000 constants. With
// shared set, every occurrence of a constant is the pool's one string; else
// each cell is a string of its own, as in the corpus (which formats every
// cell) and in any parsed or decoded input.
func corpusShapedDB(shared bool) cq.Database {
	rng := rand.New(rand.NewSource(1))
	pool := make([]string, 5_000)
	for i := range pool {
		pool[i] = fmt.Sprint("c", i)
	}
	cell := func() string {
		c := pool[rng.Intn(len(pool))]
		if shared {
			return c
		}
		return strings.Clone(c)
	}
	db := cq.Database{}
	for r := range 30 {
		rel := fmt.Sprint("r", r)
		for range 5_000 {
			db.Add(rel, cell(), cell())
		}
	}
	return db
}

// BenchmarkCompile times one Compile of a corpus-shaped database: the
// write side of a batch pass, almost all of it interning. The shared case
// is the one where Go's map, with its pointer-equality shortcut on string
// keys, beat this dictionary.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name   string
		shared bool
	}{{"distinct", false}, {"shared", true}} {
		b.Run(c.name, func(b *testing.B) {
			db := corpusShapedDB(c.shared)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := Compile(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDictIntern times one Intern of a constant the dictionary holds
// (hit, the read-locked fast path) and of a new one (miss, the write lock
// and an append), over a 5 000-constant dictionary.
func BenchmarkDictIntern(b *testing.B) {
	pool := make([]string, 5_000)
	for i := range pool {
		pool[i] = fmt.Sprint("c", i)
	}
	b.Run("hit", func(b *testing.B) {
		d := NewDict()
		for _, name := range pool {
			mustIntern(b, d, name)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if _, err := d.Intern(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		names := make([]string, 1<<16)
		for i := range names {
			names[i] = fmt.Sprint("m", i)
		}
		var d *Dict
		b.ReportAllocs()
		for i := range b.N {
			if i%len(names) == 0 { // a fresh dictionary, so every name misses
				b.StopTimer()
				d = NewDict()
				for _, name := range pool {
					mustIntern(b, d, name)
				}
				b.StartTimer()
			}
			if _, err := d.Intern(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
