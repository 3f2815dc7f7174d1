package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// partitionRows is storage's partitioned-layout threshold: Apply on a table
// above it takes the partitioned path, below it the flat one.
const partitionRows = 4096

// replay feeds the recorded submits, one batch each, straight through the
// public functions a flush is made of — CompiledDB.Apply, BoundQuery.Rebind,
// Count and DiffFrom, the delta codec and wal.Log.Append, the notification
// codec and framing — with one span per call and no store, server or socket
// around them. The untouched queries' calls of one batch share one ".idle"
// span per kind. The first `warm` submits are the set-up's warm-up and are
// replayed without spans. It returns each query's final count, which must
// equal the system's, and the mean encoded size of a notification frame.
func replay(ctx context.Context, initial cq.Database, queries []*liveQuery, ops []op, warm int, traced *tracer) (map[string]int64, float64, error) {
	eng := engine.NewEngine()
	cdb, err := eng.CompileDB(ctx, initial)
	if err != nil {
		return nil, 0, err
	}
	bound := make([]*engine.BoundQuery, len(queries))
	counts := make([]int64, len(queries))
	for i, q := range queries {
		parsed, err := cq.ParseQuery(q.text)
		if err != nil {
			return nil, 0, err
		}
		prep, err := eng.Prepare(ctx, parsed)
		if err != nil {
			return nil, 0, err
		}
		if bound[i], err = prep.Bind(ctx, cdb); err != nil {
			return nil, 0, err
		}
		if counts[i], err = bound[i].Count(ctx); err != nil {
			return nil, 0, err
		}
		// Prime the enumeration state as Register does, so DiffFrom below
		// takes the incremental path from the first batch.
		if err := bound[i].Enumerate(ctx, func(engine.Solution) bool { return false }); err != nil {
			return nil, 0, err
		}
	}
	log, err := wal.Open(wal.NewMem(), wal.Options{Mode: wal.SyncOff})
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()

	var frameBytes, frames int64
	reader := bufio.NewReader(nil)
	for k, o := range ops {
		var tr *tracer
		if k >= warm {
			tr = traced
		}
		root := tr.begin("replay.batch", -1, int64(k))
		delta := o.delta()

		name := "storage.Apply.small"
		if cdb.RelationRows(o.rel) > partitionRows {
			name = "storage.Apply.large"
		}
		id := tr.begin(name, root, int64(k))
		ncdb, err := cdb.Apply(ctx, delta)
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("replay batch %d: %w", k, err)
		}

		next := make([]*engine.BoundQuery, len(queries))
		var added, removed *engine.Relation
		// Three passes in stage order; within each, the touched query has
		// its own span and the rest share one.
		steps := []struct {
			name string
			call func(i int) error
		}{
			{"engine.Rebind", func(i int) (err error) { next[i], err = bound[i].Rebind(ctx, ncdb); return }},
			{"engine.Count", func(i int) (err error) { counts[i], err = next[i].Count(ctx); return }},
			{"engine.DiffFrom", func(i int) error {
				a, r, err := next[i].DiffFrom(ctx, bound[i])
				if i == o.query {
					added, removed = a, r
				}
				return err
			}},
		}
		for _, s := range steps {
			id := tr.begin(s.name, root, int64(k))
			err := s.call(o.query)
			tr.end(id)
			if err != nil {
				return nil, 0, fmt.Errorf("replay batch %d: %s: %w", k, s.name, err)
			}
			id = tr.begin(s.name+".idle", root, int64(k))
			for i := range queries {
				if i != o.query && err == nil {
					err = s.call(i)
				}
			}
			tr.end(id)
			if err != nil {
				return nil, 0, fmt.Errorf("replay batch %d: %s: %w", k, s.name, err)
			}
		}

		id = tr.begin("storage.Codec", root, int64(k))
		payload := storage.EncodeDelta(delta)
		_, err = storage.DecodeDelta(payload)
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = tr.begin("wal.Append", root, int64(k))
		_, err = log.Append(1, payload)
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}

		note := live.Notification{Query: queries[o.query].name, Version: uint64(k + 2), Count: counts[o.query],
			Added: decodeRows(added, next[o.query].Dict()), Removed: decodeRows(removed, next[o.query].Dict())}
		id = tr.begin("wire.Encode", root, int64(k))
		frame := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameNotify, Stream: 1, Payload: wire.EncodeNotification(&note)})
		tr.end(id)
		if k >= warm {
			frameBytes += int64(len(frame))
			frames++
		}
		id = tr.begin("wire.Decode", root, int64(k))
		reader.Reset(bytes.NewReader(frame))
		f, err := wire.ReadFrame(reader)
		if err == nil {
			_, err = wire.DecodeNotification(f.Payload)
		}
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}

		cdb, bound = ncdb, next
		tr.end(root)
	}
	final := map[string]int64{}
	for i, q := range queries {
		final[q.name] = counts[i]
	}
	return final, ratio(float64(frameBytes), float64(frames)), nil
}
