package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary codecs for the durability subsystem: a Delta codec (the payload of
// write-ahead-log records) and a DB snapshot codec (the payload of compiled
// checkpoints). Both are self-delimiting — every string and every count is
// uvarint-length-prefixed — so a decoder always knows exactly how many bytes
// to consume and a truncated or corrupted input surfaces as an error, never a
// panic. Framing, CRCs and torn-tail tolerance live one layer up, in
// internal/wal; these codecs only promise that DecodeDelta(EncodeDelta(d))
// round-trips d and DecodeDB(EncodeDB(db)) round-trips the dictionary and
// every table bit for bit.

// snapMagic and snapFormat version the DB snapshot encoding. The magic makes
// "this is not a snapshot at all" a first-byte error; the format number lets
// later revisions evolve the layout while still refusing (rather than
// misreading) older files.
var snapMagic = []byte("d2cqsnap")

const snapFormat = 1

// codec limits: a decoded count larger than this is corruption, not data —
// failing early keeps a flipped length byte from turning into a giant
// allocation.
const maxCodecLen = 1 << 30

// AppendUvarint appends the uvarint encoding of n. Exported together with
// AppendString and Reader as the primitive layer every self-delimiting codec
// in this repo shares — the wire protocol's frame payloads are built from
// the same pieces as the WAL payloads here.
func AppendUvarint(b []byte, n uint64) []byte {
	return binary.AppendUvarint(b, n)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes the length-prefixed primitives from a byte slice. Every
// accessor returns an error instead of panicking on truncated or implausible
// input, so decoders built on it are safe against arbitrary bytes.
type Reader struct {
	b   []byte
	off int
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Uvarint decodes one uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	n, sz := binary.Uvarint(r.b[r.off:])
	if sz <= 0 {
		return 0, fmt.Errorf("storage: truncated uvarint at offset %d", r.off)
	}
	r.off += sz
	return n, nil
}

// Count decodes a uvarint that will size an allocation, bounding it.
func (r *Reader) Count() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxCodecLen {
		return 0, fmt.Errorf("storage: implausible count %d at offset %d", n, r.off)
	}
	return int(n), nil
}

// String decodes one length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Count()
	if err != nil {
		return "", err
	}
	if r.off+n > len(r.b) {
		return "", fmt.Errorf("storage: truncated string at offset %d", r.off)
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// Remaining reports how many undecoded bytes are left. Decoders bound
// count-prefixed allocations with it: a list of n elements needs at least n
// encoded bytes, so any count above Remaining is corruption to refuse before
// allocating.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done errors unless every byte has been consumed.
func (r *Reader) Done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("storage: %d trailing bytes after decode", len(r.b)-r.off)
	}
	return nil
}

// EncodeDelta renders the delta as a self-delimiting byte payload: per
// relation (sorted, so the encoding is deterministic), the delete tuples then
// the insert tuples, every tuple length-prefixed. The constants are the plain
// pre-interning strings, so the payload is dictionary-independent — exactly
// what a write-ahead log needs, because recovery replays into a dictionary
// whose Value assignment may differ from the crashed process's.
func EncodeDelta(d *Delta) []byte {
	rels := d.Relations()
	b := AppendUvarint(nil, uint64(len(rels)))
	appendTuples := func(tuples [][]string) {
		b = AppendUvarint(b, uint64(len(tuples)))
		for _, t := range tuples {
			b = AppendUvarint(b, uint64(len(t)))
			for _, c := range t {
				b = AppendString(b, c)
			}
		}
	}
	for _, rel := range rels {
		b = AppendString(b, rel)
		appendTuples(d.Delete[rel])
		appendTuples(d.Insert[rel])
	}
	return b
}

// DecodeDelta parses an EncodeDelta payload. Any truncation or trailing
// garbage is an error.
func DecodeDelta(payload []byte) (*Delta, error) {
	r := NewReader(payload)
	nrels, err := r.Count()
	if err != nil {
		return nil, err
	}
	d := NewDelta()
	readTuples := func() ([][]string, error) {
		n, err := r.Count()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		// Every tuple (and every column) costs at least one encoded byte, so
		// a count beyond the remaining payload is corruption — refuse before
		// sizing the slice, not after the allocator pays for it.
		if n > r.Remaining() {
			return nil, fmt.Errorf("storage: tuple count %d exceeds %d remaining bytes", n, r.Remaining())
		}
		tuples := make([][]string, 0, n)
		for i := 0; i < n; i++ {
			arity, err := r.Count()
			if err != nil {
				return nil, err
			}
			if arity > r.Remaining() {
				return nil, fmt.Errorf("storage: arity %d exceeds %d remaining bytes", arity, r.Remaining())
			}
			tuple := make([]string, arity)
			for j := range tuple {
				if tuple[j], err = r.String(); err != nil {
					return nil, err
				}
			}
			tuples = append(tuples, tuple)
		}
		return tuples, nil
	}
	for i := 0; i < nrels; i++ {
		rel, err := r.String()
		if err != nil {
			return nil, err
		}
		if d.Delete[rel], err = readTuples(); err != nil {
			return nil, err
		}
		if len(d.Delete[rel]) == 0 {
			delete(d.Delete, rel)
		}
		if d.Insert[rel], err = readTuples(); err != nil {
			return nil, err
		}
		if len(d.Insert[rel]) == 0 {
			delete(d.Insert, rel)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// EncodeDB streams a compiled snapshot: the dictionary prefix the snapshot's
// tables can reference, then every table's interned rows in Scan order —
// storage order for a flat table, the row map's order for a persistent one,
// which is a function of the content: how a persistent table got to its
// content (which deltas, in which order, with what churn in between) does not
// show in the bytes. The dictionary
// is captured first (its length bounds every Value the tables may hold — the
// dictionary is append-only, so a concurrent Apply interning new constants
// never invalidates the prefix being written); the caller may therefore
// encode a live snapshot outside any store lock.
func EncodeDB(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	var scratch []byte
	put := func(b []byte) error {
		_, err := bw.Write(b)
		return err
	}
	if err := put(AppendUvarint(scratch[:0], snapFormat)); err != nil {
		return err
	}
	arena, ends := db.Dict.prefix()
	if err := put(AppendUvarint(scratch[:0], uint64(len(ends)-1))); err != nil {
		return err
	}
	for v := 1; v < len(ends); v++ {
		name := arena[ends[v-1]:ends[v]]
		scratch = append(AppendUvarint(scratch[:0], uint64(len(name))), name...)
		if err := put(scratch); err != nil {
			return err
		}
	}
	rels := db.Relations()
	if err := put(AppendUvarint(scratch[:0], uint64(len(rels)))); err != nil {
		return err
	}
	for _, rel := range rels {
		t := db.Table(rel)
		stride := max(t.Arity, 1) // a nullary row is written as one sentinel
		b := AppendString(scratch[:0], rel)
		b = AppendUvarint(b, uint64(t.Arity))
		b = AppendUvarint(b, uint64(t.Rows()*stride))
		if err := put(b); err != nil {
			return err
		}
		// Rows are encoded into chunks rather than written value by value:
		// a checkpoint runs inside the flush pipeline, and a Write per value
		// is most of what it would cost.
		var err error
		sentinel := []Value{0}
		chunk := scratch[:0]
		t.Scan(func(row []Value) {
			if t.Arity == 0 {
				row = sentinel
			}
			for _, v := range row {
				chunk = AppendUvarint(chunk, uint64(uint32(v)))
			}
			if len(chunk) >= 4096 && err == nil {
				err = put(chunk)
				chunk = chunk[:0]
			}
		})
		if err == nil {
			err = put(chunk)
		}
		if err != nil {
			return err
		}
		scratch = chunk // keep the grown buffer for the next table
	}
	return bw.Flush()
}

// DecodeDB reconstructs a compiled snapshot written by EncodeDB: a fresh
// dictionary holding exactly the encoded names (interning on top of it is
// append-only, as always) and fresh flat tables. A table's row map and
// distinct rows are not part of the snapshot — they are caches, rebuilt
// lazily on use.
func DecodeDB(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: snapshot magic: %w", err)
	}
	if string(magic) != string(snapMagic) {
		return nil, fmt.Errorf("storage: not a DB snapshot (magic %q)", magic)
	}
	uvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	count := func(what string) (int, error) {
		n, err := uvarint()
		if err != nil {
			return 0, fmt.Errorf("storage: snapshot %s: %w", what, err)
		}
		if n > maxCodecLen {
			return 0, fmt.Errorf("storage: snapshot %s %d is implausible", what, n)
		}
		return int(n), nil
	}
	// readInto reads a length-prefixed byte string onto the end of b.
	readInto := func(b []byte, what string) ([]byte, error) {
		n, err := count(what)
		if err != nil {
			return nil, err
		}
		b = slices.Grow(b, n)[:len(b)+n]
		if _, err := io.ReadFull(br, b[len(b)-n:]); err != nil {
			return nil, fmt.Errorf("storage: snapshot %s: %w", what, err)
		}
		return b, nil
	}
	format, err := count("format")
	if err != nil {
		return nil, err
	}
	if format != snapFormat {
		return nil, fmt.Errorf("storage: snapshot format %d, this build reads %d", format, snapFormat)
	}
	nNames, err := count("dictionary length")
	if err != nil {
		return nil, err
	}
	// The names go straight into the arena; the table is sized once, and
	// seating them finds any name the snapshot repeats.
	dict := NewDict()
	for range nNames {
		if dict.arena, err = readInto(dict.arena, "dictionary entry"); err != nil {
			return nil, err
		}
		if int64(len(dict.arena)) > maxDictBytes || dict.len() >= maxDictValues {
			return nil, ErrDictFull
		}
		dict.ends = append(dict.ends, uint32(len(dict.arena)))
	}
	if first, second, dup := dict.index(tableSize(nNames)); dup {
		return nil, fmt.Errorf("storage: snapshot dictionary repeats %q (values %d and %d)", dict.at(first), first, second)
	}
	nTables, err := count("table count")
	if err != nil {
		return nil, err
	}
	out := newDB(dict)
	ids, tables := make([]Value, 0, min(nTables, 1024)), make([]*Table, 0, min(nTables, 1024))
	seen := make(map[string]bool, min(nTables, 1024))
	for i := 0; i < nTables; i++ {
		b, err := readInto(nil, "table name")
		if err != nil {
			return nil, err
		}
		name := string(b)
		if seen[name] {
			return nil, fmt.Errorf("storage: snapshot repeats table %s", name)
		}
		seen[name] = true
		arity, err := count("arity")
		if err != nil {
			return nil, err
		}
		dataLen, err := count("table size")
		if err != nil {
			return nil, err
		}
		stride := arity
		if arity == 0 {
			stride = 1 // sentinel layout of nullary tables
		}
		if dataLen%stride != 0 {
			return nil, fmt.Errorf("storage: table %s holds %d values at arity %d", name, dataLen, arity)
		}
		t := &Table{Name: name, Arity: arity, Data: make([]Value, dataLen)}
		for j := range t.Data {
			v, err := uvarint()
			if err != nil {
				return nil, fmt.Errorf("storage: table %s data: %w", name, err)
			}
			if v > math.MaxInt32 || (int(v) >= nNames && !(arity == 0 && v == 0)) {
				return nil, fmt.Errorf("storage: table %s references value %d outside the %d-entry dictionary", name, v, nNames)
			}
			t.Data[j] = Value(v)
		}
		id, err := out.rels.Intern(name)
		if err != nil {
			return nil, err
		}
		ids, tables = append(ids, id), append(tables, t)
	}
	out.tables = directory(ids, tables)
	return out, nil
}
