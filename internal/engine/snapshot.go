package engine

import (
	"io"

	"d2cq/internal/storage"
)

// WriteSnapshot serialises the compiled database to w in the storage snapshot
// format (dictionary prefix plus every table's rows). The receiver is immutable, so
// the snapshot is consistent even while concurrent Applies derive successor
// snapshots — they never mutate this one.
func (c *CompiledDB) WriteSnapshot(w io.Writer) error {
	return storage.EncodeDB(w, c.sdb)
}

// ReadCompiledDB reconstructs a CompiledDB from a snapshot stream produced by
// WriteSnapshot. Its tables are flat and carry no cached row map or distinct
// rows — those rebuild lazily on first use — but it is otherwise equivalent
// to the snapshot it was written from: Apply, Bind, and Rebind all work on
// top of it.
func (e *Engine) ReadCompiledDB(r io.Reader) (*CompiledDB, error) {
	sdb, err := storage.DecodeDB(r)
	if err != nil {
		return nil, err
	}
	return &CompiledDB{sdb: sdb, eng: e}, nil
}
