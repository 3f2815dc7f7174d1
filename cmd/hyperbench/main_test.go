package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallCorpus(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "census.csv")
	var out strings.Builder
	if err := run([]string{"-per", "3", "-maxk", "3", "-csv", csvPath}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ghw > k") || !strings.Contains(s, "corpus composition") {
		t.Errorf("output:\n%s", s)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "name,family,") {
		t.Errorf("csv header wrong: %q", string(data)[:40])
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "NaN"}, &out); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunJSONReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "2", "-maxk", "3", "-evalwidth", "3", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Entries == 0 || len(rep.Table1) != 3 || rep.GenMS <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	if rep.Eval == nil || rep.Eval.Sat+rep.Eval.Unsat != rep.Entries {
		t.Errorf("eval report incomplete: %+v", rep.Eval)
	}
	if rep.Eval != nil && (rep.Eval.Binds == 0 || rep.Eval.DBCompiles == 0) {
		t.Errorf("bind counters missing: %+v", rep.Eval)
	}
	// The human tables must not leak into machine output.
	if strings.Contains(out.String(), "===") {
		t.Error("human tables in -json output")
	}
}

func TestRunEvalCorpus(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "2", "-maxk", "3", "-evalwidth", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "canonical BCQ evaluation") || !strings.Contains(s, "engine: prepares=") {
		t.Errorf("missing evaluation report:\n%s", s)
	}
}

func TestRunParallelSweep(t *testing.T) {
	// Shrink the sweep databases: at the production 512 tuples/edge this
	// test alone would take ~a minute under -race, which is exactly the
	// fast-loop regression the -short split of the corpus tests exists to
	// prevent. The flag plumbing and report shape are what's under test.
	defer func(orig int) { parallelTuplesPerEdge = orig }(parallelTuplesPerEdge)
	parallelTuplesPerEdge = 48

	var out strings.Builder
	if err := run([]string{"-per", "2", "-maxk", "3", "-parallel", "1,2", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	pr := rep.Parallel
	if pr == nil {
		t.Fatal("parallel report missing")
	}
	if pr.Entries == 0 || pr.Answers == 0 {
		t.Errorf("sweep sampled nothing: %+v", pr)
	}
	if pr.NumCPU < 1 || pr.GOMAXPROCS < 1 {
		t.Errorf("hardware context missing: %+v", pr)
	}
	if len(pr.Sweep) != 2 || pr.Sweep[0].Parallelism != 1 || pr.Sweep[1].Parallelism != 2 {
		t.Fatalf("sweep levels wrong: %+v", pr.Sweep)
	}
	for _, lvl := range pr.Sweep {
		if lvl.EnumerateAllMS <= 0 {
			t.Errorf("parallelism %d: no enumeration timing", lvl.Parallelism)
		}
	}
	// The sequential level carries 1.0 speedups by definition.
	if s := pr.Sweep[0].EnumerateSpeedup; s < 0.99 || s > 1.01 {
		t.Errorf("base enumerate speedup = %v, want 1.0", s)
	}

	// Human mode prints the sweep table; a bad level list errors.
	out.Reset()
	if err := run([]string{"-per", "1", "-maxk", "3", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WithParallelism sweep") {
		t.Errorf("missing sweep table:\n%s", out.String())
	}
	if err := run([]string{"-per", "1", "-parallel", "0,x"}, &out); err == nil {
		t.Error("bad -parallel levels should error")
	}
}

func TestRunUpdatesBench(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "1", "-maxk", "3", "-updates", "4", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	up := rep.Updates
	if up == nil {
		t.Fatal("updates report missing")
	}
	if up.Entries == 0 || up.Rounds != up.Entries*4 {
		t.Errorf("rounds = %d for %d entries, want %d", up.Rounds, up.Entries, up.Entries*4)
	}
	if up.Checked == 0 {
		t.Error("no differential spot checks ran")
	}
	if up.IncrementalMS <= 0 || up.RecompileMS <= 0 || up.Speedup <= 0 {
		t.Errorf("timings incomplete: %+v", up)
	}

	// Human mode prints the summary line.
	out.Reset()
	if err := run([]string{"-per", "1", "-maxk", "3", "-updates", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "incremental updates") || !strings.Contains(out.String(), "speedup") {
		t.Errorf("missing updates summary:\n%s", out.String())
	}
}

func TestRunCoalesceBench(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per", "1", "-maxk", "3", "-updates", "16", "-coalesce", "4", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	cr := rep.Coalesce
	if cr == nil {
		t.Fatal("coalesce report missing")
	}
	if cr.Entries == 0 || cr.Rounds != cr.Entries*16 || cr.Batch != 4 {
		t.Errorf("stream shape wrong: %+v", cr)
	}
	if cr.Checked != cr.Entries {
		t.Errorf("cross-checked %d of %d entries", cr.Checked, cr.Entries)
	}
	// The whole point: one Rebind per batch instead of per delta.
	if cr.PerDeltaRebinds != uint64(cr.Rounds) {
		t.Errorf("per-delta rebinds = %d, want %d", cr.PerDeltaRebinds, cr.Rounds)
	}
	if cr.CoalescedRebinds != uint64(cr.Rounds/4) {
		t.Errorf("coalesced rebinds = %d, want %d", cr.CoalescedRebinds, cr.Rounds/4)
	}

	// Human mode prints the summary line.
	out.Reset()
	if err := run([]string{"-per", "1", "-maxk", "3", "-coalesce", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "coalesced ingestion") || !strings.Contains(out.String(), "rebinds") {
		t.Errorf("missing coalesce summary:\n%s", out.String())
	}
}
