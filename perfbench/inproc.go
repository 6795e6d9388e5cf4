package main

import (
	"fmt"
	"sync"
	"time"

	"step/internal/harness"
	"step/internal/scenario"
)

// decoderSpec is the Fig. 17 end-to-end decoder: both MoE models at the
// paper's scale, batch 64, heavy expert skew, the dynamic schedule
// against two static tilings.
func decoderSpec() scenario.Spec {
	return scenario.Spec{
		ID:         "decoder-e2e",
		Title:      "End-to-end decoder (Fig. 17): dynamic vs static schedules, batch 64",
		Kind:       scenario.KindDecoder,
		Models:     []scenario.ModelSpec{{Base: "mixtral"}, {Base: "qwen"}},
		Scale:      8,
		Batch:      64,
		Skew:       "heavy",
		Strategies: []string{"dynamic", "static:16", "static:64"},
	}
}

// parWorkers is the parallel engine's worker count: one per CPU, and at
// least two, since fewer selects the sequential engine.
func parWorkers() int { return max(2, nproc()) }

// inproc is a closed loop of one spec run in process through scenario.
type inproc struct {
	spec  scenario.Spec
	suite harness.Suite // the timed loop's pool size and engine
	other harness.Suite // the other engine, for the correctness gate
}

// runTilingSeq loops the full-resolution fig10 sweep with one harness
// worker per CPU on the sequential engine.
func runTilingSeq(o options, out *outcome) error {
	return inproc{
		spec:  scenario.Fig10(),
		suite: harness.Suite{Workers: nproc(), SimWorkers: 1},
		other: harness.Suite{Workers: 1, SimWorkers: parWorkers()},
	}.run(o, out)
}

// runDecoderPar loops the decoder spec one simulation at a time, each
// spread over the CPUs by the parallel engine.
func runDecoderPar(o options, out *outcome) error {
	return inproc{
		spec:  decoderSpec(),
		suite: harness.Suite{Workers: 1, SimWorkers: parWorkers()},
		other: harness.Suite{Workers: nproc(), SimWorkers: 1},
	}.run(o, out)
}

// sweepRun is one in-process sweep.
type sweepRun struct {
	seed     uint64
	table    string
	csv      string
	rows     []scenario.PointResult // kept for traced sweeps only
	latency  time.Duration
	firstRow time.Duration
	busy     time.Duration // sum of the points' durations
	slowest  time.Duration
	parallel int // the suite's harness workers
}

// sweep runs sp once at seed. With a recorder it installs the harness's
// point hook and records a client.sweep span with a harness.point child
// per point; without one the sweep runs exactly as a user's would.
func sweep(sp scenario.Spec, s harness.Suite, seed uint64, rec *recorder, req string) (sweepRun, error) {
	r := sweepRun{seed: seed, parallel: max(1, s.Workers)}
	s.Seed = seed
	root := rec.id()
	if rec != nil {
		var mu sync.Mutex
		s.OnPoint = func(ev harness.PointEvent) {
			end := time.Now()
			rec.add(0, root, req, "harness.point", end.Add(-ev.Duration), end)
			mu.Lock()
			r.busy += ev.Duration
			r.slowest = max(r.slowest, ev.Duration)
			mu.Unlock()
		}
	}
	start := time.Now()
	sink := scenario.Sink{Row: func(p scenario.PointResult) {
		if r.firstRow == 0 {
			r.firstRow = time.Since(start)
		}
		if rec != nil {
			r.rows = append(r.rows, p)
		}
	}}
	tb, err := scenario.RunStream(sp, s, sink)
	end := time.Now()
	r.latency = end.Sub(start)
	rec.add(root, 0, req, "client.sweep", start, end)
	if err != nil {
		return r, fmt.Errorf("sweep %s seed %d: %w", sp.ID, seed, err)
	}
	r.table, r.csv = tb.String(), tb.CSV()
	return r, nil
}

func (w inproc) run(o options, out *outcome) error {
	seeds := newFreshSeeds(o.seed, 1, map[uint64]bool{})
	// Set-up is the warm-up sweep: the first sweep in a process runs about
	// twice as slow as later ones and must stay out of the timed loop.
	for i := 0; i < o.setups(); i++ {
		start := time.Now()
		if _, err := sweep(w.spec, w.suite, seeds.next(), nil, ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start))
	}

	// A traced run alternates traced and untraced sweeps, so the two can
	// be compared under the same conditions; it needs one of each.
	minSweeps := 1
	if o.trace {
		minSweeps = 2
	}
	points := w.spec.PointCount(false)
	var runs []sweepRun
	var traced, untraced durations
	a0, ticks := totalAlloc(), readCPUTicks()
	start := time.Now()
	for i := 0; i < minSweeps || time.Since(start) < o.window(); i++ {
		var rec *recorder
		if i%2 == 1 {
			rec = out.rec
		}
		r, err := sweep(w.spec, w.suite, seeds.next(), rec, fmt.Sprintf("sweep-%d", i))
		out.op(err)
		if err != nil {
			continue
		}
		out.sweeps = append(out.sweeps, r.latency)
		out.firstRows = append(out.firstRows, r.firstRow)
		out.points += points
		if rec != nil {
			traced = append(traced, r.latency)
		} else {
			untraced = append(untraced, r.latency)
		}
		runs = append(runs, r)
	}
	out.window = time.Since(start)
	out.alloc = totalAlloc() - a0
	out.extra["host_steal_pct"] = stealPct(ticks)
	out.rssMB = peakRSSMB()
	if len(runs) == 0 {
		return fmt.Errorf("every sweep failed: %v", out.errs)
	}

	// Correctness gate: the golden tables, and the first sweep again on
	// the other engine.
	if err := goldenGate(out); err != nil {
		return err
	}
	first := runs[0]
	out.op(checkOtherEngine(w.spec, w.other, first))

	if !o.trace {
		return nil
	}
	out.layers["trace.overhead_pct"] = overheadPct(traced, untraced)
	harnessLayers(out, runs)
	var kept []sweepRun
	for _, r := range runs {
		if r.rows != nil && len(kept) < 4 {
			kept = append(kept, r)
		}
	}
	in := probeInput{spec: w.spec, suite: w.suite, seed: first.seed, table: first.table, entries: kept}
	if err := runProbes(o, in, out); err != nil {
		return err
	}
	return serveProbe(o, in, out)
}

// overheadPct is how much slower the traced operations' median latency
// is than the untraced ones' of the same run, in percent.
func overheadPct(traced, untraced durations) float64 {
	return 100 * (ratio(float64(traced.median()), float64(untraced.median())) - 1)
}

// harnessLayers derives the worker pool's metrics from traced sweeps.
func harnessLayers(out *outcome, runs []sweepRun) {
	var busy, capacity, shares float64
	n := 0
	for _, r := range runs {
		if r.busy == 0 {
			continue // untraced: the point hook was not installed
		}
		busy += float64(r.busy)
		capacity += float64(r.latency) * float64(r.parallel)
		shares += ratio(float64(r.slowest), float64(r.latency))
		n++
	}
	out.layers["harness.busy_ratio"] = ratio(busy, capacity)
	out.layers["harness.slowest_point_share"] = ratio(shares, float64(n))
}
