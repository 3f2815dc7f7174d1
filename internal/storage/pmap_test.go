package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func pmapContent(m *PMap[int64]) map[string]int64 {
	out := map[string]int64{}
	m.Range(func(key []Value, v int64) bool {
		out[fmt.Sprint(key)] = v
		return true
	})
	return out
}

func requirePMap(t *testing.T, what string, m *PMap[int64], want map[string]int64) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, m.Len(), len(want))
	}
	got := pmapContent(m)
	if len(got) != len(want) {
		t.Fatalf("%s: Range yields %d entries, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: entry %s = %d, want %d", what, k, got[k], v)
		}
	}
}

// TestPMapDifferential drives random Set/Delete edits through a chain of
// frozen snapshots and holds every snapshot — old ones included, after all
// their successors were built — to a plain Go map of the same history, with
// the ordinary hash and with degenerate ones that force the push-down and
// collision-list paths.
func TestPMapDifferential(t *testing.T) {
	hashes := map[string]func([]Value) uint64{
		"fnv":       pmapHash,
		"constant":  func([]Value) uint64 { return 42 },
		"low-bits":  func(k []Value) uint64 { return uint64(k[0]) & 3 },
		"high-only": func(k []Value) uint64 { return uint64(k[0]&7) << 58 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			cur := newPMapWithHash[int64](2, hash)
			model := map[string]int64{}
			type snap struct {
				m    *PMap[int64]
				want map[string]int64
			}
			var snaps []snap
			for round := 0; round < 60; round++ {
				e := cur.Edit()
				for op := 0; op < 1+rng.Intn(40); op++ {
					key := []Value{Value(rng.Intn(24)), Value(rng.Intn(6))}
					if rng.Intn(3) == 0 {
						_, had := model[fmt.Sprint(key)]
						if e.Delete(key) != had {
							t.Fatalf("round %d: Delete(%v) = %v, want %v", round, key, !had, had)
						}
						delete(model, fmt.Sprint(key))
					} else {
						v := rng.Int63n(1000)
						e.Set(key, v)
						model[fmt.Sprint(key)] = v
					}
					if got, ok := e.Get(key); ok != e.Has(key) || got != model[fmt.Sprint(key)] {
						t.Fatalf("round %d: Get(%v) = %d,%v mid-edit", round, key, got, ok)
					}
				}
				cur = e.Freeze()
				want := make(map[string]int64, len(model))
				for k, v := range model {
					want[k] = v
				}
				snaps = append(snaps, snap{cur, want})
			}
			for i, s := range snaps {
				requirePMap(t, fmt.Sprintf("snapshot %d", i), s.m, s.want)
			}
			// Diff between any two snapshots of the chain — neighbours, far
			// apart, backwards — is the difference of their key sets.
			for n := 0; n < 200; n++ {
				old, cur := snaps[rng.Intn(len(snaps))], snaps[rng.Intn(len(snaps))]
				gone, came := map[string]bool{}, map[string]bool{}
				cur.m.Diff(old.m, func(k []Value) { gone[fmt.Sprint(k)] = true }, func(k []Value) { came[fmt.Sprint(k)] = true })
				for k := range old.want {
					if _, still := cur.want[k]; gone[k] == still {
						t.Fatalf("Diff: key %s gone=%v, but present afterwards=%v", k, gone[k], still)
					}
				}
				for k := range cur.want {
					if _, was := old.want[k]; came[k] == was {
						t.Fatalf("Diff: key %s came=%v, but present before=%v", k, came[k], was)
					}
				}
				for k := range gone {
					if _, was := old.want[k]; !was {
						t.Fatalf("Diff: reports %s gone, which the old map never held", k)
					}
				}
				for k := range came {
					if _, is := cur.want[k]; !is {
						t.Fatalf("Diff: reports %s came, which the new map does not hold", k)
					}
				}
			}
		})
	}
}

// TestPMapDiffSkipsSharedStructure is Diff's cost claim as a count: against a
// successor three keys away it looks at a few dozen entries, in a map of
// 2 000 and in one of 64 000 alike — not at the map.
func TestPMapDiffSkipsSharedStructure(t *testing.T) {
	visited := func(n int) int {
		e := NewPMap[struct{}](2).Edit()
		for i := 0; i < n; i++ {
			e.Set([]Value{Value(i), Value(i * 7)}, struct{}{})
		}
		base := e.Freeze()
		e = base.Edit()
		e.Delete([]Value{3, 21})
		e.Set([]Value{Value(n), 5}, struct{}{})
		e.Set([]Value{Value(n + 1), 5}, struct{}{})
		next := e.Freeze()
		gone, came := 0, 0
		v := next.Diff(base, func([]Value) { gone++ }, func([]Value) { came++ })
		if gone != 1 || came != 2 {
			t.Fatalf("%d keys: Diff reports %d gone and %d came, want 1 and 2", n, gone, came)
		}
		return v
	}
	small, large := visited(2_000), visited(64_000)
	t.Logf("entries looked at by a 3-key Diff: %d of 2 000, %d of 64 000", small, large)
	if large > 200 || small > 200 {
		t.Fatalf("a 3-key Diff looked at %d (of 2 000) and %d (of 64 000) entries; it must skip what the maps share", small, large)
	}
}

// TestPMapShapeIsCanonical: the iteration order depends on the content only,
// so a map that grew and shrank lists its entries exactly like one built
// directly.
func TestPMapShapeIsCanonical(t *testing.T) {
	direct := NewPMap[int64](1).Edit()
	churned := NewPMap[int64](1).Edit()
	for i := 0; i < 2000; i++ {
		churned.Set([]Value{Value(i)}, int64(i))
	}
	for i := 0; i < 2000; i++ {
		if i%7 != 0 {
			churned.Delete([]Value{Value(i)})
		} else {
			direct.Set([]Value{Value(i)}, int64(i))
		}
	}
	var a, b []Value
	direct.Freeze().Range(func(k []Value, _ int64) bool { a = append(a, k...); return true })
	churned.Freeze().Range(func(k []Value, _ int64) bool { b = append(b, k...); return true })
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("iteration order depends on the edit history")
	}
}

func TestPMapFrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a frozen PMap must panic")
		}
	}()
	NewPMap[int64](1).Set([]Value{1}, 1)
}

// TestPMapZeroWidth: the empty tuple is a valid key (nullary relations).
func TestPMapZeroWidth(t *testing.T) {
	e := NewPMap[int64](0).Edit()
	e.Set(nil, 5)
	e.Set([]Value{}, 6)
	m := e.Freeze()
	if v, ok := m.Get(nil); !ok || v != 6 || m.Len() != 1 {
		t.Fatalf("Get(()) = %d,%v Len=%d, want 6,true,1", v, ok, m.Len())
	}
}

// BenchmarkPMapDiff is the atom step of a one-tuple Rebind: the difference of
// two row maps one key apart, read by skipping everything they share — against
// n, the size of the relation it does not scan.
func BenchmarkPMapDiff(b *testing.B) {
	for _, n := range []int{5_000, 80_000} {
		e := NewPMap[struct{}](2).Edit()
		for i := 0; i < n; i++ {
			e.Set([]Value{Value(i), Value(i * 7)}, struct{}{})
		}
		base := e.Freeze()
		e = base.Edit()
		e.Set([]Value{Value(n), 1}, struct{}{})
		next := e.Freeze()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			keys := 0
			for i := 0; i < b.N; i++ {
				next.Diff(base, func([]Value) { keys++ }, func([]Value) { keys++ })
			}
			if keys != b.N {
				b.Fatalf("Diff reported %d keys over %d runs, want one each", keys, b.N)
			}
		})
	}
}

// BenchmarkTupleMapSuccessor is the support-map step of incremental
// maintenance: derive the successor of an n-entry tuple→count map that
// differs in one key, or in 100 keys patched inside one edit (reported per
// edit: divide by 100 for the per-key cost). The persistent map pays the trie
// path; the flat TupleMap it replaced on that path had to copy everything
// (divide by n for the flat per-row cost).
func BenchmarkTupleMapSuccessor(b *testing.B) {
	for _, n := range []int{5_000, 100_000} {
		key := make([]Value, 2)
		flat := NewTupleMap(2, n)
		pm := NewPMap[int64](2).Edit()
		for i := 0; i < n; i++ {
			key[0], key[1] = Value(i), Value(i*7)
			flat.Add(key, 1)
			pm.Set(key, 1)
		}
		pm.Freeze()
		b.Run(fmt.Sprintf("pmap-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cur := pm
			for i := 0; i < b.N; i++ {
				key[0], key[1] = Value(i%n), Value((i%n)*7)
				e := cur.Edit()
				v, _ := e.Get(key)
				e.Set(key, v+1)
				cur = e.Freeze()
			}
		})
		b.Run(fmt.Sprintf("pmap-100keys-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cur := pm
			for i := 0; i < b.N; i++ {
				e := cur.Edit()
				for j := 0; j < 100; j++ {
					at := (i*100 + j*37) % n
					key[0], key[1] = Value(at), Value(at*7)
					v, _ := e.Get(key)
					e.Set(key, v+1)
				}
				cur = e.Freeze()
			}
		})
		b.Run(fmt.Sprintf("flat-rebuild-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key[0], key[1] = Value(i%n), Value((i%n)*7)
				next := NewTupleMap(2, flat.Len())
				for s := int32(0); int(s) < flat.Len(); s++ {
					next.Add(flat.Key(s), flat.Val(s))
				}
				next.Add(key, 1)
			}
		})
	}
}

// BenchmarkIndexPatch is the join-index step: add one row under an existing
// key of an index over n rows (bucket copy-on-write inside a persistent map).
// It must cost the same at 5 000 and 100 000 rows.
func BenchmarkIndexPatch(b *testing.B) {
	for _, n := range []int{5_000, 100_000} {
		pm := NewPMap[[]Value](1).Edit()
		for i := 0; i < n; i++ {
			row := []Value{Value(i / 2), Value(i)}
			bucket, _ := pm.Get(row[:1])
			pm.Set(row[:1], append(bucket[:len(bucket):len(bucket)], row...))
		}
		pm.Freeze()
		b.Run(fmt.Sprintf("pmap-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cur := pm
			for i := 0; i < b.N; i++ {
				row := []Value{Value(i % (n / 2)), Value(n + i)}
				e := cur.Edit()
				bucket, _ := e.Get(row[:1])
				e.Set(row[:1], append(bucket[:len(bucket):len(bucket)], row...))
				cur = e.Freeze()
			}
		})
	}
}

// samePNodes reports whether two tries have the same shape and content, node
// by node.
func samePNodes[V comparable](a, b *pnode[V]) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.datamap != b.datamap || a.nodemap != b.nodemap || !slices.Equal(a.keys, b.keys) ||
		!slices.Equal(a.vals, b.vals) || len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.kids {
		if !samePNodes(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// rangeOf lists a map's entries in Range order.
func rangeOf(m *PMap[int64]) string {
	var b strings.Builder
	m.Range(func(k []Value, v int64) bool {
		fmt.Fprint(&b, k, v, ";")
		return true
	})
	return b.String()
}

// buildLast bulk-builds the empty map m over the width-2 keys, each under
// the value of its last occurrence in vals, as per-key Set would leave it —
// and checks that the builder hands every key its occurrences in input order.
func buildLast(m *PMap[int64], keys []Value, vals []int64) *PMap[int64] {
	return m.build(keys, len(vals), func(at []int32) int64 {
		for j := range at {
			if j > 0 && at[j-1] >= at[j] || !slices.Equal(keys[2*at[j]:2*at[j]+2], keys[2*at[0]:2*at[0]+2]) {
				panic(fmt.Sprintf("occurrences %v: not one key's, in input order", at))
			}
		}
		return vals[at[len(at)-1]]
	})
}

// requireSameMap holds a bulk-built map to the per-key one of the same
// content: one shape, one Range order, an empty Diff either way.
func requireSameMap(t *testing.T, what string, built, set *PMap[int64]) {
	t.Helper()
	if built.Len() != set.Len() {
		t.Fatalf("%s: Len %d, per-key Set makes %d", what, built.Len(), set.Len())
	}
	if !samePNodes(built.root, set.root) {
		t.Fatalf("%s: the trie's shape differs from per-key Set's", what)
	}
	if a, b := rangeOf(built), rangeOf(set); a != b {
		t.Fatalf("%s: Range order differs:\n built %s\n   set %s", what, a, b)
	}
	report := func([]Value) { t.Fatalf("%s: Diff reports a key between equal maps", what) }
	built.Diff(set, report, report)
	set.Diff(built, report, report)
}

// TestBuildPMapMatchesSet is BuildPMap's contract over random key sets, with
// repeated keys and with degenerate hashes that force push-downs and
// collision lists: the map equals the one per-key Set builds from the same
// pairs, and after one random Set/Delete script on each the successors
// still do.
func TestBuildPMapMatchesSet(t *testing.T) {
	hashes := map[string]func([]Value) uint64{
		"fnv":       pmapHash,
		"constant":  func([]Value) uint64 { return 42 },
		"low-bits":  func(k []Value) uint64 { return uint64(k[0]) & 3 },
		"high-only": func(k []Value) uint64 { return uint64(k[0]&7) << 58 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for round, n := range []int{0, 1, 2, 3, 17, 40, 300, 3000} {
				domain := 1 + n/2 // about one key in three repeats
				keys, vals := make([]Value, 0, 2*n), make([]int64, n)
				set := newPMapWithHash[int64](2, hash).Edit()
				for i := range vals {
					key := []Value{Value(rng.Intn(domain)), Value(rng.Intn(3))}
					keys, vals[i] = append(keys, key...), rng.Int63n(1000)
					set.Set(key, vals[i])
				}
				built := buildLast(newPMapWithHash[int64](2, hash), keys, vals)
				what := fmt.Sprintf("round %d (%d pairs)", round, n)
				requireSameMap(t, what, built, set.Freeze())
				eb, es := built.Edit(), set.Edit()
				for op := 0; op < 1+n/4; op++ {
					key := []Value{Value(rng.Intn(domain + 2)), Value(rng.Intn(3))}
					if rng.Intn(2) == 0 {
						if eb.Delete(key) != es.Delete(key) {
							t.Fatalf("%s: Delete(%v) disagrees", what, key)
						}
					} else {
						v := rng.Int63n(1000)
						eb.Set(key, v)
						es.Set(key, v)
					}
				}
				requireSameMap(t, what+" after edits", eb.Freeze(), es.Freeze())
				// The built map itself is untouched by its successor's edits.
				requireSameMap(t, what+" original", built, buildLast(newPMapWithHash[int64](2, hash), keys, vals))
			}
		})
	}
}

// TestPMapCollisionOrder: keys whose hashes coincide are listed in key order,
// so Range's order is the same whatever order they were set in, and the same
// as BuildPMap's.
func TestPMapCollisionOrder(t *testing.T) {
	constant := func([]Value) uint64 { return 7 }
	var keys []Value
	vals := make([]int64, 12)
	for i := range vals {
		keys = append(keys, Value(11-i), Value(i%3))
		vals[i] = int64(i)
	}
	want := rangeOf(buildLast(newPMapWithHash[int64](2, constant), keys, vals))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		e := newPMapWithHash[int64](2, constant).Edit()
		for _, i := range rng.Perm(len(vals)) {
			e.Set(keys[2*i:2*i+2], vals[i])
		}
		if got := rangeOf(e.Freeze()); got != want {
			t.Fatalf("trial %d: Range order\n %s\ndepends on the insertion order; BuildPMap lists\n %s", trial, got, want)
		}
	}
	var prev []Value
	buildLast(newPMapWithHash[int64](2, constant), keys, vals).Range(func(k []Value, _ int64) bool {
		if prev != nil && slices.Compare(prev, k) >= 0 {
			t.Fatalf("collision list not in key order: %v before %v", prev, k)
		}
		prev = slices.Clone(k)
		return true
	})
}

// BenchmarkPMapBuild is the bulk build against per-key Set, over n two-column
// keys: the conversion a first Rebind pays per maintained map.
func BenchmarkPMapBuild(b *testing.B) {
	for _, n := range []int{5_000, 20_000} {
		keys, vals := make([]Value, 0, 2*n), make([]int64, n)
		for i := range vals {
			keys, vals[i] = append(keys, Value(i), Value(i*7)), int64(i)
		}
		b.Run(fmt.Sprintf("build-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildPMap(2, keys, n, func(at []int32) int64 { return vals[at[0]] })
			}
		})
		b.Run(fmt.Sprintf("set-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := NewPMap[int64](2).Edit()
				for j, v := range vals {
					m.Set(keys[2*j:2*j+2], v)
				}
				m.Freeze()
			}
		})
	}
}
