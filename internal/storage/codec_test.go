package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"d2cq/internal/cq"
)

func randomDelta(rng *rand.Rand) *Delta {
	d := NewDelta()
	rels := []string{"R", "S", "T", "empty-ok", "uni\x00code"}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		rel := rels[rng.Intn(len(rels))]
		tuple := make([]string, rng.Intn(4))
		for j := range tuple {
			tuple[j] = string(rune('a' + rng.Intn(5)))
		}
		if rng.Intn(2) == 0 {
			d.Add(rel, tuple...)
		} else {
			d.Remove(rel, tuple...)
		}
	}
	return d
}

// TestDeltaCodecRoundTrip: DecodeDelta(EncodeDelta(d)) reproduces every
// relation's insert and delete tuple lists exactly (order preserved).
func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d := randomDelta(rng)
		got, err := DecodeDelta(EncodeDelta(d))
		if err != nil {
			t.Fatalf("delta %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normDelta(d), normDelta(got)) {
			t.Fatalf("delta %d: round trip\n in: %+v\nout: %+v", i, d, got)
		}
	}
	// The empty delta round-trips too.
	got, err := DecodeDelta(EncodeDelta(NewDelta()))
	if err != nil || !got.Empty() {
		t.Fatalf("empty delta round trip: %+v, %v", got, err)
	}
}

// normDelta drops empty map entries so DeepEqual compares content.
func normDelta(d *Delta) map[string][2][][]string {
	out := map[string][2][][]string{}
	for _, rel := range d.Relations() {
		out[rel] = [2][][]string{d.Delete[rel], d.Insert[rel]}
	}
	return out
}

// TestDeltaCodecTruncation: every strict prefix of a valid encoding fails to
// decode with an error (never panics, never silently succeeds), and trailing
// garbage is rejected.
func TestDeltaCodecTruncation(t *testing.T) {
	d := NewDelta().Add("R", "abc", "def").Remove("S", "x").Add("T")
	enc := EncodeDelta(d)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDelta(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
	if _, err := DecodeDelta(append(append([]byte{}, enc...), 0x7)); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

// TestDBCodecRoundTrip: a compiled database — including a nullary relation
// and constants shared across tables — survives EncodeDB/DecodeDB with an
// identical dictionary and bit-identical table data, and the decoded snapshot
// keeps working (interning appends past the snapshot prefix).
func TestDBCodecRoundTrip(t *testing.T) {
	src := cq.Database{}
	src.Add("R", "a", "b")
	src.Add("R", "b", "c")
	src.Add("S", "c")
	src.Add("Nullary")
	db, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the dictionary past the tables (an applied delta that only
	// deleted, say) to check the prefix handling.
	mustIntern(t, db.Dict, "unreferenced")

	var buf bytes.Buffer
	if err := EncodeDB(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gn, wn := dictNames(got.Dict), dictNames(db.Dict); !reflect.DeepEqual(gn, wn) {
		t.Fatalf("dictionary: %v, want %v", gn, wn)
	}
	if gr, wr := got.Relations(), db.Relations(); !reflect.DeepEqual(gr, wr) {
		t.Fatalf("relations: %v, want %v", gr, wr)
	}
	for _, rel := range db.Relations() {
		gt, wt := got.Table(rel), db.Table(rel)
		if gt.Arity != wt.Arity || !tuplesEqual(tableTuples(gt, got.Dict), tableTuples(wt, db.Dict)) {
			t.Fatalf("table %s: arity %d rows %v, want arity %d rows %v",
				rel, gt.Arity, keys(tableTuples(gt, got.Dict)), wt.Arity, keys(tableTuples(wt, db.Dict)))
		}
	}
	// The decoded snapshot is live: Apply works on top of it.
	next, err := got.Apply(NewDelta().Add("R", "c", "zz"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Table("R").Rows() != 3 {
		t.Fatalf("apply over decoded snapshot: %d rows, want 3", next.Table("R").Rows())
	}
}

// TestDBCodecRejectsCorruption: truncations and a wrong magic fail with an
// error rather than a bogus database.
func TestDBCodecRejectsCorruption(t *testing.T) {
	src := cq.Database{}
	src.Add("R", "a", "b")
	db, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeDB(&buf, db); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDB(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
	bad := append([]byte{}, enc...)
	bad[0] ^= 0xff
	if _, err := DecodeDB(bytes.NewReader(bad)); err == nil {
		t.Fatal("decode with corrupted magic succeeded")
	}
}
