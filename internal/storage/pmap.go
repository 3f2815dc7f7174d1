package storage

import (
	"math/bits"
	"slices"
	"sync"
)

// PMap is a persistent hash map from fixed-width value tuples to V: a
// compressed hash-array-mapped trie branching 32 ways on successive 5-bit
// groups of the tuple hash. A frozen PMap is immutable and safe for any
// number of concurrent readers; Edit returns a successor that shares every
// node with it, and the successor's mutators copy only the nodes on the path
// to the touched key (and each at most once per edit), so deriving a
// snapshot that differs in d keys costs O(d · log₃₂ n) time and space — never
// O(n). This is the container behind the engine's maintained query state
// (atom sets, node supports, join indexes, key counts): a BoundQuery stays
// immutable for readers of the old snapshot while its successor is patched
// in time proportional to the change. Exact collision handling as in
// TupleMap: keys are stored and compared in full, and tuples whose 64-bit
// hashes coincide share a linear node below the last trie level.
type PMap[V any] struct {
	k    int
	n    int
	root *pnode[V]
	hash func([]Value) uint64
	edit *pedit // non-nil while the map is editable

	copied int // entries this edit's path copies have moved so far
}

// pedit is the ownership token of one edit: a node carrying the token was
// created by that edit and is invisible to every frozen map, so the edit may
// mutate it in place. It must not be zero-sized (distinct allocations of
// zero-sized values may share an address).
type pedit struct{ _ byte }

// pnode is one trie node. Position p (0..31) holds an inline entry when
// datamap has bit p, a child when nodemap has bit p; entries and children are
// stored densely in position order. A position holds an entry exactly when one
// key of the map falls under it, so the trie's shape is a function of its
// content. A node below the last hash bit group holds colliding entries as a
// plain list in key order, with both maps zero.
type pnode[V any] struct {
	edit    *pedit
	datamap uint32
	nodemap uint32
	keys    []Value // k values per inline entry
	vals    []V
	kids    []*pnode[V]
}

const (
	pmapBits     = 5
	pmapMaxShift = 60 // last shift with hash bits left; nodes deeper are collision lists
)

// NewPMap returns an empty frozen map over width-k tuples.
func NewPMap[V any](k int) *PMap[V] { return &PMap[V]{k: k, hash: pmapHash} }

// newPMapWithHash is the test seam for the collision path: a degenerate hash
// drives every key down one trie path into a collision list.
func newPMapWithHash[V any](k int, hash func([]Value) uint64) *PMap[V] {
	return &PMap[V]{k: k, hash: hash}
}

// pmapHash finalises the FNV tuple hash so that every 5-bit group depends on
// all input bits (FNV-1a's low bits depend only on the inputs' low bits).
func pmapHash(key []Value) uint64 {
	h := HashTuple(key)
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// Len returns the number of entries.
func (m *PMap[V]) Len() int { return m.n }

// Copied returns how many entries the path copies of the edit that produced
// m have moved — the part of an edit's cost that is not one probe per
// operation. Callers accounting for rows touched add it per edit.
func (m *PMap[V]) Copied() int { return m.copied }

// Edit returns an editable successor sharing all structure with m, which
// stays frozen and unaffected. The successor belongs to one goroutine until
// Freeze.
func (m *PMap[V]) Edit() *PMap[V] {
	return &PMap[V]{k: m.k, n: m.n, root: m.root, hash: m.hash, edit: new(pedit)}
}

// Freeze ends the edit: the map becomes immutable and shareable. It returns
// m for chaining.
func (m *PMap[V]) Freeze() *PMap[V] {
	m.edit = nil
	return m
}

// BuildPMap returns the frozen map over the n width-k keys laid out in keys
// (key i is keys[i*k:(i+1)*k]). It holds each distinct key once, under the
// value val returns for it: val is called once per distinct key, in the
// map's layout order, with the positions of that key's occurrences in input
// order (a view into the builder's memory: do not retain it). The map is the
// one that Setting the keys in turn into an empty map makes — the same trie,
// so Range lists both in one order and Diff between them reports nothing —
// built in one pass instead of one root-to-leaf path per key: every key is
// hashed once, the keys are counting-sorted on each 5-bit hash group in turn,
// and every node's entries and children are laid out once, at their final
// size, in a few slabs the whole map shares (and a slab lives as long as any
// node cut from it). Those nodes are frozen like any other, so an edit copies
// each on its first write. keys is not retained.
func BuildPMap[V any](k int, keys []Value, n int, val func(occurrences []int32) V) *PMap[V] {
	return NewPMap[V](k).build(keys, n, val)
}

// pbuild is one bulk build in progress. The first pass sorts the keys into
// trie order and records the trie: every node's maps in preorder, and each
// entry's run of occurrences, in the order the nodes will list them. The
// second lays the nodes out from that record, in slabs sized by it.
type pbuild[V any] struct {
	*pscratch
	k     int
	keys  []Value
	val   func([]int32) V
	nodes []pnode[V]
	kids  []*pnode[V]
	nkeys []Value
	nvals []V
}

// pscratch is a build's working memory. Builds reuse it through a pool,
// since every build writes each element before reading it: the conversion to
// maintained form makes a dozen maps in a row, and zeroing fresh scratch for
// each cost more than the sort.
type pscratch struct {
	hash     []uint64 // key i's hash
	ord, tmp []int32  // key positions, and the buffer the counting sort scatters into
	shape    []uint64 // per node, in preorder: datamap<<32 | nodemap; a collision list's length
	runs     []int32  // per entry, in layout order: where its run of occurrences starts and ends in ord
}

var pscratchPool = sync.Pool{New: func() any { return new(pscratch) }}

// build fills the empty map m; see BuildPMap.
func (m *PMap[V]) build(keys []Value, n int, val func([]int32) V) *PMap[V] {
	if n == 0 {
		return m
	}
	sc := pscratchPool.Get().(*pscratch)
	defer pscratchPool.Put(sc)
	sc.hash, sc.ord, sc.tmp = grown(sc.hash, n), grown(sc.ord, n), grown(sc.tmp, n)
	sc.runs, sc.shape = grown(sc.runs, 2*n)[:0], sc.shape[:0]
	b := &pbuild[V]{pscratch: sc, k: m.k, keys: keys, val: val}
	for i := range b.ord {
		b.ord[i] = int32(i)
		b.hash[i] = m.hash(b.key(int32(i)))
	}
	b.sort(0, int32(n), 0)
	shape, runs := sc.shape, sc.runs // the layout pass consumes them
	entries := len(runs) / 2
	b.nodes = make([]pnode[V], len(shape))
	b.kids = make([]*pnode[V], len(shape)-1)
	b.nkeys = make([]Value, entries*m.k)
	b.nvals = make([]V, entries)
	m.root, m.n = b.node(0), entries
	sc.shape, sc.runs = shape, runs
	return m
}

// grown returns s resized to n elements, keeping its array when it is large
// enough. The elements are left as they were.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (b *pbuild[V]) key(i int32) []Value { return b.keys[int(i)*b.k : (int(i)+1)*b.k] }

func (b *pbuild[V]) group(i int32, shift uint) uint32 { return uint32(b.hash[i]>>shift) & 31 }

// single reports whether the keys at ord[lo:hi] are all one key, so that
// they make one trie entry.
func (b *pbuild[V]) single(lo, hi int32) bool {
	first := b.ord[lo]
	for _, i := range b.ord[lo+1 : hi] {
		if b.hash[i] != b.hash[first] || !slices.Equal(b.key(i), b.key(first)) {
			return false
		}
	}
	return true
}

// sort orders ord[lo:hi], the keys under one node at shift, into trie order —
// stably by each 5-bit hash group from shift on, and a collision list by key,
// so that a key's occurrences stay in input order — and records that node and
// the ones under it.
func (b *pbuild[V]) sort(lo, hi int32, shift uint) {
	if shift > pmapMaxShift {
		slices.SortStableFunc(b.ord[lo:hi], func(x, y int32) int { return slices.Compare(b.key(x), b.key(y)) })
		runs := len(b.runs)
		for i, start := lo, lo; i < hi; i++ {
			if i+1 == hi || !slices.Equal(b.key(b.ord[i]), b.key(b.ord[i+1])) {
				b.runs, start = append(b.runs, start, i+1), i+1
			}
		}
		b.shape = append(b.shape, uint64(len(b.runs)-runs)/2)
		return
	}
	var end [32]int32 // end[g]: where group g ends once scattered
	var used uint32   // the groups present
	for _, i := range b.ord[lo:hi] {
		g := b.group(i, shift)
		end[g]++
		used |= 1 << g
	}
	at := lo
	for rest := used; rest != 0; rest &= rest - 1 {
		g := bits.TrailingZeros32(rest)
		at += end[g]
		end[g] = at - end[g]
	}
	for _, i := range b.ord[lo:hi] {
		g := b.group(i, shift)
		b.tmp[end[g]] = i
		end[g]++
	}
	copy(b.ord[lo:hi], b.tmp[lo:hi])
	// This node's entries first, then the nodes under it, in preorder.
	var datamap uint32
	start := lo
	for rest := used; rest != 0; rest &= rest - 1 {
		g := bits.TrailingZeros32(rest)
		if end[g]-start == 1 || b.single(start, end[g]) {
			datamap |= 1 << g
			b.runs = append(b.runs, start, end[g])
		}
		start = end[g]
	}
	b.shape = append(b.shape, uint64(datamap)<<32|uint64(used&^datamap))
	start = lo
	for rest := used; rest != 0; rest &= rest - 1 {
		g := bits.TrailingZeros32(rest)
		if datamap&(1<<g) == 0 {
			b.sort(start, end[g], shift+pmapBits)
		}
		start = end[g]
	}
}

// node lays out the next recorded node, at shift, and everything under it.
func (b *pbuild[V]) node(shift uint) *pnode[V] {
	n, shape := &b.nodes[0], b.shape[0]
	b.nodes, b.shape = b.nodes[1:], b.shape[1:]
	entries, kids := int(shape), 0
	if shift <= pmapMaxShift {
		n.datamap, n.nodemap = uint32(shape>>32), uint32(shape)
		entries, kids = bits.OnesCount32(n.datamap), bits.OnesCount32(n.nodemap)
	}
	n.keys, n.vals, n.kids = cut(&b.nkeys, entries*b.k), cut(&b.nvals, entries), cut(&b.kids, kids)
	for e := range entries {
		run := b.ord[b.runs[2*e]:b.runs[2*e+1]]
		copy(n.keys[e*b.k:], b.key(run[0]))
		n.vals[e] = b.val(run)
	}
	b.runs = b.runs[2*entries:]
	for i := range n.kids {
		n.kids[i] = b.node(shift + pmapBits)
	}
	return n
}

// cut takes the first n elements off a slab, capped so that appending to them
// copies rather than overwrites the slab.
func cut[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

func (m *PMap[V]) keyAt(n *pnode[V], i int) []Value { return n.keys[i*m.k : (i+1)*m.k] }

func (m *PMap[V]) find(key []Value) (*pnode[V], int) {
	n := m.root
	h := m.hash(key)
	for shift := uint(0); n != nil; shift += pmapBits {
		if shift > pmapMaxShift {
			for i := range n.vals {
				if slices.Equal(m.keyAt(n, i), key) {
					return n, i
				}
			}
			return nil, 0
		}
		bit := uint32(1) << ((h >> shift) & 31)
		if n.datamap&bit != 0 {
			i := bits.OnesCount32(n.datamap & (bit - 1))
			if slices.Equal(m.keyAt(n, i), key) {
				return n, i
			}
			return nil, 0
		}
		if n.nodemap&bit == 0 {
			return nil, 0
		}
		n = n.kids[bits.OnesCount32(n.nodemap&(bit-1))]
	}
	return nil, 0
}

// Get returns the value stored under key.
func (m *PMap[V]) Get(key []Value) (v V, ok bool) {
	if n, i := m.find(key); n != nil {
		return n.vals[i], true
	}
	return v, false
}

// Has reports whether key is present.
func (m *PMap[V]) Has(key []Value) bool {
	n, _ := m.find(key)
	return n != nil
}

// Range calls f for every entry until f returns false, in an order fixed by
// the keys alone — by their hashes, and keys whose hashes coincide in key
// order — not by the edit history. The key slice aliases the map's storage:
// do not mutate it, copy to retain it.
func (m *PMap[V]) Range(f func(key []Value, v V) bool) {
	if m.root != nil {
		m.rangeNode(m.root, f)
	}
}

func (m *PMap[V]) rangeNode(n *pnode[V], f func([]Value, V) bool) bool {
	if n.datamap|n.nodemap == 0 { // collision list
		for i := range n.vals {
			if !f(m.keyAt(n, i), n.vals[i]) {
				return false
			}
		}
		return true
	}
	di, ki := 0, 0
	for rest := n.datamap | n.nodemap; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		if n.datamap&bit != 0 {
			if !f(m.keyAt(n, di), n.vals[di]) {
				return false
			}
			di++
		} else {
			if !m.rangeNode(n.kids[ki], f) {
				return false
			}
			ki++
		}
	}
	return true
}

// own returns a node the current edit may mutate: n itself when this edit
// created it, a copy otherwise.
func (m *PMap[V]) own(n *pnode[V]) *pnode[V] {
	if n.edit == m.edit {
		return n
	}
	m.copied += len(n.vals)
	return &pnode[V]{
		edit:    m.edit,
		datamap: n.datamap,
		nodemap: n.nodemap,
		keys:    slices.Clone(n.keys),
		vals:    slices.Clone(n.vals),
		kids:    slices.Clone(n.kids),
	}
}

func (m *PMap[V]) mustEdit() {
	if m.edit == nil {
		panic("storage: mutation of a frozen PMap")
	}
}

// Set stores v under key, replacing any previous value.
func (m *PMap[V]) Set(key []Value, v V) {
	m.mustEdit()
	var added bool
	m.root, added = m.set(m.root, 0, m.hash(key), key, v)
	if added {
		m.n++
	}
}

func (m *PMap[V]) set(n *pnode[V], shift uint, h uint64, key []Value, v V) (*pnode[V], bool) {
	if n == nil {
		n = &pnode[V]{edit: m.edit}
	} else {
		n = m.own(n)
	}
	if shift > pmapMaxShift {
		// A collision list is kept in key order, so that Range's order does
		// not depend on which colliding key came first.
		i := 0
		for ; i < len(n.vals); i++ {
			if c := slices.Compare(m.keyAt(n, i), key); c == 0 {
				n.vals[i] = v
				return n, false
			} else if c > 0 {
				break
			}
		}
		n.keys = slices.Insert(n.keys, i*m.k, key...)
		n.vals = slices.Insert(n.vals, i, v)
		return n, true
	}
	bit := uint32(1) << ((h >> shift) & 31)
	switch {
	case n.datamap&bit != 0:
		i := bits.OnesCount32(n.datamap & (bit - 1))
		old := m.keyAt(n, i)
		if slices.Equal(old, key) {
			n.vals[i] = v
			return n, false
		}
		// Two entries under one position: push both one level down.
		child, _ := m.set(nil, shift+pmapBits, m.hash(old), old, n.vals[i])
		child, _ = m.set(child, shift+pmapBits, h, key, v)
		n.keys = slices.Delete(n.keys, i*m.k, (i+1)*m.k)
		n.vals = slices.Delete(n.vals, i, i+1)
		n.kids = slices.Insert(n.kids, bits.OnesCount32(n.nodemap&(bit-1)), child)
		n.datamap &^= bit
		n.nodemap |= bit
		return n, true
	case n.nodemap&bit != 0:
		j := bits.OnesCount32(n.nodemap & (bit - 1))
		child, added := m.set(n.kids[j], shift+pmapBits, h, key, v)
		n.kids[j] = child
		return n, added
	default:
		i := bits.OnesCount32(n.datamap & (bit - 1))
		n.keys = slices.Insert(n.keys, i*m.k, key...)
		n.vals = slices.Insert(n.vals, i, v)
		n.datamap |= bit
		return n, true
	}
}

// Delete removes key and reports whether it was present.
func (m *PMap[V]) Delete(key []Value) bool {
	m.mustEdit()
	root, removed := m.del(m.root, 0, m.hash(key), key)
	if removed {
		m.root = root
		m.n--
	}
	return removed
}

// del returns the node replacing n (nil when it emptied) and whether the key
// was found. Nothing is copied when the key is absent.
func (m *PMap[V]) del(n *pnode[V], shift uint, h uint64, key []Value) (*pnode[V], bool) {
	if n == nil {
		return nil, false
	}
	dropEntry := func(i int) *pnode[V] {
		if len(n.vals) == 1 && len(n.kids) == 0 {
			return nil
		}
		n = m.own(n)
		n.keys = slices.Delete(n.keys, i*m.k, (i+1)*m.k)
		n.vals = slices.Delete(n.vals, i, i+1)
		return n
	}
	if shift > pmapMaxShift {
		for i := range n.vals {
			if slices.Equal(m.keyAt(n, i), key) {
				return dropEntry(i), true
			}
		}
		return n, false
	}
	bit := uint32(1) << ((h >> shift) & 31)
	if n.datamap&bit != 0 {
		i := bits.OnesCount32(n.datamap & (bit - 1))
		if !slices.Equal(m.keyAt(n, i), key) {
			return n, false
		}
		if n = dropEntry(i); n != nil {
			n.datamap &^= bit
		}
		return n, true
	}
	if n.nodemap&bit == 0 {
		return n, false
	}
	j := bits.OnesCount32(n.nodemap & (bit - 1))
	child, removed := m.del(n.kids[j], shift+pmapBits, h, key)
	if !removed {
		return n, false
	}
	n = m.own(n)
	switch {
	case child == nil:
		if len(n.kids) == 1 && len(n.vals) == 0 {
			return nil, true
		}
		n.kids = slices.Delete(n.kids, j, j+1)
		n.nodemap &^= bit
	case len(child.vals) == 1 && len(child.kids) == 0:
		// The child shrank to one entry: pull it up inline, so the trie's
		// shape stays a function of its content and churn cannot deepen it.
		i := bits.OnesCount32(n.datamap & (bit - 1))
		n.keys = slices.Insert(n.keys, i*m.k, child.keys...)
		n.vals = slices.Insert(n.vals, i, child.vals[0])
		n.kids = slices.Delete(n.kids, j, j+1)
		n.nodemap &^= bit
		n.datamap |= bit
	default:
		n.kids[j] = child
	}
	return n, true
}

// Diff calls gone for every key of old that m lacks and came for every key
// of m that old lacks (values are not compared), skipping every subtree the
// two maps share by pointer: between a map and a successor derived from it
// by edits touching d keys it costs O(d · log₃₂ n), between unrelated maps
// O(n). The trie's shape is a function of its content, so equal subtrees of
// related maps are almost always the same node. It returns the number of
// entries it had to look at. Both maps must be over the same key width and
// hash. The key slices alias the maps' storage: copy to retain.
func (m *PMap[V]) Diff(old *PMap[V], gone, came func(key []Value)) int {
	if m.k != old.k {
		panic("storage: Diff of maps over different key widths")
	}
	d := pdiff[V]{k: m.k, gone: gone, came: came}
	d.nodes(old.root, m.root, 0)
	return d.visited
}

type pdiff[V any] struct {
	k          int
	gone, came func(key []Value)
	visited    int
}

func (d *pdiff[V]) keyAt(n *pnode[V], i int) []Value { return n.keys[i*d.k : (i+1)*d.k] }

// all reports every key under n through f.
func (d *pdiff[V]) all(n *pnode[V], f func([]Value)) {
	for i := range n.vals {
		d.visited++
		f(d.keyAt(n, i))
	}
	for _, kid := range n.kids {
		d.all(kid, f)
	}
}

// entry diffs a single key on one side against the subtree n on the other:
// every key under n but key itself goes to other, and key goes to missing
// when n does not hold it.
func (d *pdiff[V]) entry(key []Value, n *pnode[V], missing, other func([]Value)) {
	found := false
	d.all(n, func(k []Value) {
		if !found && slices.Equal(k, key) {
			found = true
			return
		}
		other(k)
	})
	if !found {
		d.visited++
		missing(key)
	}
}

func (d *pdiff[V]) nodes(a, b *pnode[V], shift uint) {
	switch {
	case a == b:
		return
	case a == nil:
		d.all(b, d.came)
		return
	case b == nil:
		d.all(a, d.gone)
		return
	}
	if shift > pmapMaxShift { // collision lists: compare pairwise
		has := func(n *pnode[V], key []Value) bool {
			for i := range n.vals {
				if slices.Equal(d.keyAt(n, i), key) {
					return true
				}
			}
			return false
		}
		for i := range a.vals {
			d.visited++
			if key := d.keyAt(a, i); !has(b, key) {
				d.gone(key)
			}
		}
		for i := range b.vals {
			d.visited++
			if key := d.keyAt(b, i); !has(a, key) {
				d.came(key)
			}
		}
		return
	}
	var ad, ak, bd, bk int // running entry and child positions in a and b
	for rest := a.datamap | a.nodemap | b.datamap | b.nodemap; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		aData, aKid := a.datamap&bit != 0, a.nodemap&bit != 0
		bData, bKid := b.datamap&bit != 0, b.nodemap&bit != 0
		switch {
		case aKid && bKid:
			d.nodes(a.kids[ak], b.kids[bk], shift+pmapBits)
		case aData && bData:
			d.visited++
			if ka, kb := d.keyAt(a, ad), d.keyAt(b, bd); !slices.Equal(ka, kb) {
				d.gone(ka)
				d.came(kb)
			}
		case aData && bKid:
			d.entry(d.keyAt(a, ad), b.kids[bk], d.gone, d.came)
		case aKid && bData:
			d.entry(d.keyAt(b, bd), a.kids[ak], d.came, d.gone)
		case aData:
			d.visited++
			d.gone(d.keyAt(a, ad))
		case bData:
			d.visited++
			d.came(d.keyAt(b, bd))
		case aKid:
			d.all(a.kids[ak], d.gone)
		default:
			d.all(b.kids[bk], d.came)
		}
		if aData {
			ad++
		}
		if aKid {
			ak++
		}
		if bData {
			bd++
		}
		if bKid {
			bk++
		}
	}
}
