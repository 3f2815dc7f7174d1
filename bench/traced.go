package main

import (
	"context"
	"time"

	"d2cq/internal/live"
)

// runLiveTraced is a live workload's --trace 1 run. The measuring time is
// split in two phases over the same generated input:
//
//   - a third against the d2cqd child, untraced: the base that
//     trace_overhead_pct compares with, and the only place the process-level
//     numbers (CPU, resident set, crash recovery) exist;
//   - the rest traced: for the wire workloads the store and wire server run
//     inside this process behind tracedService and tracedBackend; HTTP's
//     handlers live in d2cqd's package main and cannot be wrapped, so there
//     the daemon stays and the layers are seen through /stats deltas only.
//
// Both phases end with the oracle; the recorded submits are then replayed
// through the layers' public functions for the per-call numbers.
func runLiveTraced(ctx context.Context, name string, o options, out *outcome) error {
	spec := liveSpecs[name]
	a, err := setupLive(name, o, false, nil)
	if err != nil {
		return err
	}
	defer func() { a.close() }()
	pa, err := a.timedPhase(o.seconds / 3)
	if err != nil {
		return err
	}
	base := newOutcome()
	a.userMetrics(pa, base)
	out.set("d2cqd.cpu_ms_per_op", ms(pa.cpu)/float64(pa.ops))
	out.set("d2cqd.rss_peak_mb", pa.rssMB)
	if err := a.finish(ctx, out); err != nil {
		return err
	}
	a.close()

	tr := newTracer()
	out.tracer = tr
	b, err := setupLive(name, o, !spec.http, tr)
	if err != nil {
		return err
	}
	defer func() { b.close() }()
	var seg0, ckpt0 int64
	if b.sys.backend != nil {
		seg0, ckpt0 = b.sys.backend.written()
	}
	tr.startPhase()
	user0 := b.userBytes
	pb, err := b.timedPhase(o.seconds - o.seconds/3)
	if err != nil {
		return err
	}
	traced := newOutcome()
	b.userMetrics(pb, traced)
	// Closed loop: the load follows the system, so overhead shows as lost
	// throughput. Open loop: the rate is fixed, so it shows as added latency.
	if spec.rate == 0 {
		out.set("client.trace_overhead_pct", 100*(base.values["ops_per_s"]-traced.values["ops_per_s"])/base.values["ops_per_s"])
	} else {
		out.set("client.trace_overhead_pct", 100*(traced.values["answer_p50_ms"]-base.values["answer_p50_ms"])/base.values["answer_p50_ms"])
	}
	b.layers(pb, tr, out)
	if b.sys.backend != nil {
		seg1, ckpt1 := b.sys.backend.written()
		out.set("wal.bytes_per_user_byte", ratio(float64(seg1-seg0), float64(b.userBytes-user0)))
		out.set("wal.checkpoint_bytes", ratio(float64(ckpt1-ckpt0), float64(len(tr.durations("wal.WriteCheckpoint")))))
	}

	// The system's counts, for the replay to agree with.
	counts := map[string]int64{}
	for _, q := range b.gen.queries {
		if _, counts[q.name], err = b.tgt.register(q.name, q.text); err != nil {
			return err
		}
	}
	replayed, frameBytes, err := replay(ctx, b.initial, b.gen.queries, b.submitted, b.warm, tr)
	if err != nil {
		return err
	}
	for _, q := range b.gen.queries {
		b.attempted++
		if replayed[q.name] != counts[q.name] {
			b.failed++
			out.notef("MISMATCH replay: %s ends at %d rows, the system at %d", q.name, replayed[q.name], counts[q.name])
		}
	}
	perBatch := func(name string) time.Duration { // the touched query's call plus the rest of the registry's
		return mean(tr.durations(name)) + mean(tr.durations(name+".idle"))
	}
	out.set("storage.apply_small_us", us(mean(tr.durations("storage.Apply.small"))))
	out.set("storage.apply_large_us", us(mean(tr.durations("storage.Apply.large"))))
	out.set("storage.codec_us", us(mean(tr.durations("storage.Codec"))))
	out.set("engine.rebind_us", us(perBatch("engine.Rebind")))
	out.set("engine.count_upd_us", us(perBatch("engine.Count")))
	out.set("engine.diff_us", us(perBatch("engine.DiffFrom")))
	out.set("wal.log_append_us", us(mean(tr.durations("wal.Append"))))
	out.set("wire.encode_us", us(mean(tr.durations("wire.Encode"))))
	out.set("wire.decode_us", us(mean(tr.durations("wire.Decode"))))
	out.set("wire.bytes_per_notify", frameBytes)

	if spec.rate > 0 { // a sync submit's ack already contains its flush: nothing to split
		b.budget(out)
	}
	return b.finish(ctx, out)
}

// layers stores the per-layer numbers a traced phase yields directly: means
// of the spans the wrappers recorded, and before/after deltas of the counters
// the program already exports.
func (e *liveEnv) layers(p *phase, tr *tracer, out *outcome) {
	d := func(get func(live.Stats) uint64) float64 { return float64(get(p.after) - get(p.before)) }
	flushes := d(func(s live.Stats) uint64 { return s.Flushes })
	stage := d(func(s live.Stats) uint64 { return s.Flush.StageNs })
	commit := d(func(s live.Stats) uint64 { return s.Flush.CommitNs })
	walNs := d(func(s live.Stats) uint64 { return s.Flush.WalNs })
	staged := d(func(s live.Stats) uint64 { return s.Flush.StagedQueries })
	out.set("live.stage_ms", ratio(stage, flushes)/1e6)
	out.set("live.commit_us", ratio(commit, flushes)/1e3)
	out.set("wal.append_us", ratio(walNs, flushes)/1e3)
	out.set("live.lock_hold_max_us", float64(p.after.Flush.MaxLockHoldNs)/1e3)
	out.set("live.staged_per_flush", ratio(staged, flushes))
	// Every submit touches one query, so submits over staged queries bounds
	// the share of staging work a change-driven stage would keep.
	out.set("live.touched_ratio", ratio(d(func(s live.Stats) uint64 { return s.DeltasSubmitted }), staged))
	flushed := d(func(s live.Stats) uint64 { return s.FlushedTuples })
	out.set("live.coalesce_ratio", ratio(flushed, d(func(s live.Stats) uint64 { return s.TuplesSubmitted })))
	out.set("storage.rows_touched_per_apply", ratio(flushed, flushes))

	out.set("engine.rebinds_per_flush", ratio(d(func(s live.Stats) uint64 { return s.Engine.Rebinds }), flushes))
	joins := d(func(s live.Stats) uint64 { return s.Engine.NodeDeltaJoins })
	out.set("engine.delta_path_ratio", ratio(joins, joins+d(func(s live.Stats) uint64 { return s.Engine.NodeRebuilds })))
	fast := d(func(s live.Stats) uint64 { return s.Engine.AtomDeltaFast })
	out.set("engine.atom_fast_ratio", ratio(fast, fast+d(func(s live.Stats) uint64 { return s.Engine.AtomDeltaScan })))
	diffs := d(func(s live.Stats) uint64 { return s.Engine.DiffsFast })
	out.set("engine.diff_fast_ratio", ratio(diffs, diffs+d(func(s live.Stats) uint64 { return s.Engine.DiffsOracle })))
	out.set("wire.frames_out", float64(p.wire.FramesOut-p.wireBefore.FramesOut))

	submit := mean(tr.durations("live.Submit"))
	flush := tr.durations("live.Flush")
	out.set("live.submit_us", us(submit))
	out.set("engine.solutions_us", us(mean(tr.durations("live.Solutions"))))
	rtt := mean(tr.durations("client.submit"))
	switch {
	case e.spec.http:
		// No seam inside the daemon: the whole round trip is front end plus
		// a Submit that costs what live.submit_us shows on serve.wire.
		out.set("d2cqd.http_self_us", us(rtt))
		out.set("live.flush_ms", ratio(stage+commit+walNs, flushes)/1e6)
	case len(flush) > 0: // sync submits: the flush is inside the round trip
		out.set("live.flush_ms", ms(mean(flush)))
		out.set("wire.self_us", us(rtt-submit-mean(flush)))
	default:
		out.set("live.flush_ms", ratio(stage+commit+walNs, flushes)/1e6)
		out.set("wire.self_us", us(rtt-submit))
	}
	syncs := tr.durations("wal.Sync")
	out.set("wal.sync_us", us(mean(syncs)))
	out.set("wal.syncs", float64(len(syncs)))
	out.set("wal.checkpoint_ms", ms(mean(tr.durations("wal.WriteCheckpoint"))))

	for name, pop := range map[string]*samples{"write": &e.ack, "answer": &e.m.notify, "read": &e.read} {
		sorted := pop.sorted()
		v, pct := tailRule(sorted)
		out.set("client."+name+"_tail_ms", ms(v))
		out.notef("%s client.%s_tail_ms is p%.2f of %d samples", e.name, name, pct, len(sorted))
	}
	late, _ := tailRule(e.late.sorted())
	out.set("client.gen_late_tail_ms", ms(late))
}

// budget prints where the mean submit→notify time of the traced phase went:
// the attributed rows plus the unattributed remainder, which is reported as
// live.wait_ms so that the rows visibly add up. Means, because medians do
// not add.
func (e *liveEnv) budget(out *outcome) {
	notify := ms(mean(e.m.notify.sorted()))
	rows := []struct {
		name string
		ms   float64
	}{
		{"ack (scheduled send -> submit acked)", ms(mean(e.ack.sorted()))},
		{"stage (Apply, Rebind, Count, DiffFrom)", out.values["live.stage_ms"]},
		{"wal (append before commit)", out.values["wal.append_us"] / 1e3},
		{"commit (swap, ring append)", out.values["live.commit_us"] / 1e3},
		{"deliver (encode, frame, decode)", (out.values["wire.encode_us"] + out.values["wire.decode_us"]) / 1e3},
	}
	sum := 0.0
	out.notef("%s budget of mean submit->notify (traced phase, ms):", e.name)
	for _, r := range rows {
		sum += r.ms
		out.notef("  %-42s %8.3f", r.name, r.ms)
	}
	out.set("live.wait_ms", notify-sum)
	out.notef("  %-42s %8.3f", "wait (unattributed: coalescing window, queues, wake-ups)", notify-sum)
	out.notef("  %-42s %8.3f", "= mean submit->notify", notify)
}
