package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"step/internal/des"
	"step/internal/graph"
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/store"
)

// probeInput is a workload's own inputs, handed to the layer probes.
type probeInput struct {
	spec    scenario.Spec
	suite   harness.Suite // the workload's pool size and engine
	seed    uint64        // a seed whose table the run already rendered
	table   string
	entries []sweepRun // finished sweeps with their streamed rows
}

// runProbes drives each layer's public functions directly, outside the
// timed region, and records the per-layer metrics. Every probe that
// reproduces a result the run already has counts as a checked operation.
func runProbes(o options, in probeInput, out *outcome) error {
	desProbes(out)
	raws, err := pointProbes(in, out)
	if err != nil {
		return err
	}
	renderProbe(in, raws, out)
	hashProbe(in, out)
	return storeProbe(o, in, out)
}

// desProbes time the engines' own primitives: a one-slot ping-pong, and
// a stream of elements through default-depth channels on each engine.
func desProbes(out *outcome) {
	const rounds, elements = 100_000, 200_000
	d, err := pingPong(rounds)
	out.op(err)
	out.layers["des.seq_handoff_ns"] = float64(d) / (2 * rounds)
	d, err = pipeline(1, 1, elements)
	out.op(err)
	out.layers["des.seq_element_ns"] = float64(d) / elements
	const stages = 4
	d, err = pipeline(parWorkers(), stages, elements/2)
	out.op(err)
	out.layers["des.par_element_ns"] = float64(d) / float64(stages*elements/2)
}

// pingPong bounces a token between two processes through two depth-1
// channels on the sequential engine: every receive is a process handoff.
func pingPong(rounds int) (time.Duration, error) {
	sim := des.New()
	ab := des.NewChan[int](sim, "ab", 1, 1)
	ba := des.NewChan[int](sim, "ba", 1, 1)
	a := sim.Spawn("a", func(p *des.Process) error {
		for i := 0; i < rounds; i++ {
			ab.Send(p, i)
			if _, ok := ba.Recv(p); !ok {
				return fmt.Errorf("ping-pong: channel closed early")
			}
		}
		ab.Close(p)
		return nil
	})
	b := sim.Spawn("b", func(p *des.Process) error {
		for {
			v, ok := ab.Recv(p)
			if !ok {
				return nil
			}
			ba.Send(p, v)
		}
	})
	ab.BindSender(a).BindRecver(b)
	ba.BindSender(b).BindRecver(a)
	start := time.Now()
	_, err := sim.Run()
	return time.Since(start), err
}

// pipeline streams n elements through a chain of stages processes
// linked by channels of the graph layer's default depth and latency.
func pipeline(workers, stages, n int) (time.Duration, error) {
	cfg := graph.DefaultConfig()
	sim := des.NewWithWorkers(workers)
	chans := make([]*des.Chan[int], stages)
	for i := range chans {
		chans[i] = des.NewChan[int](sim, fmt.Sprintf("c%d", i), cfg.ChannelDepth, cfg.ChannelLatency)
	}
	src := sim.Spawn("src", func(p *des.Process) error {
		for i := 0; i < n; i++ {
			chans[0].Send(p, i)
			p.Advance(1)
		}
		chans[0].Close(p)
		return nil
	})
	chans[0].BindSender(src)
	for s := 1; s < stages; s++ {
		in, next := chans[s-1], chans[s]
		proc := sim.Spawn(fmt.Sprintf("stage%d", s), func(p *des.Process) error {
			for {
				v, ok := in.Recv(p)
				if !ok {
					next.Close(p)
					return nil
				}
				next.Send(p, v)
			}
		})
		in.BindRecver(proc)
		next.BindSender(proc)
	}
	last := chans[stages-1]
	count := 0
	sink := sim.Spawn("sink", func(p *des.Process) error {
		for {
			if _, ok := last.Recv(p); !ok {
				return nil
			}
			count++
		}
	})
	last.BindRecver(sink)
	start := time.Now()
	_, err := sim.Run()
	d := time.Since(start)
	if err == nil && count != n {
		err = fmt.Errorf("pipeline delivered %d of %d elements", count, n)
	}
	return d, err
}

// pointProbes runs every grid point of the workload's sweep at the
// probe seed twice: once as a worker would (scenario.RunPoint) and once
// rebuilt from the workload builders and run through Program.Run, timing
// build and run apart. Both must report the same cycles. The first point
// also runs on the parallel engine for its scheduler counters.
func pointProbes(in probeInput, out *outcome) ([][]byte, error) {
	s := in.suite
	s.Seed = in.seed
	n := in.spec.PointCount(false)
	raws := make([][]byte, n)
	var pointT, buildT, runT durations
	var cycles, allocs uint64
	var sched des.SchedStats
	for idx := 0; idx < n; idx++ {
		start := time.Now()
		pr, err := scenario.RunPoint(in.spec, s, idx)
		pointT = append(pointT, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("probe point %d: %w", idx, err)
		}
		raws[idx] = pr.Raw
		var raw struct {
			Cycles uint64 `json:"cycles"`
		}
		if err := json.Unmarshal(pr.Raw, &raw); err != nil {
			return nil, fmt.Errorf("probe point %d: %w", idx, err)
		}

		pb, err := buildPoint(in.spec, s, idx)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		progs, err := pb.build()
		buildT = append(buildT, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("probe build %d: %w", idx, err)
		}
		var res []graph.Result
		for _, p := range progs {
			m0 := mallocs()
			start := time.Now()
			sess, err := p.Run(pb.opts...)
			runT = append(runT, time.Since(start))
			allocs += mallocs() - m0
			if err != nil {
				return nil, fmt.Errorf("probe run %d: %w", idx, err)
			}
			res = append(res, sess.Result)
			cycles += uint64(sess.Result.Cycles)
			if s.SimWorkers >= 2 {
				addSched(&sched, sess.Result.Sched)
			}
		}
		var mismatch error
		if got := pb.cycles(res); got != raw.Cycles {
			mismatch = fmt.Errorf("point %d: rebuilt programs give %d cycles, RunPoint %d", idx, got, raw.Cycles)
		}
		out.op(mismatch)
		if idx == 0 && s.SimWorkers < 2 {
			for _, p := range progs {
				sess, err := p.Run(append(pb.opts, graph.WithSimWorkers(parWorkers()))...)
				if err != nil {
					return nil, fmt.Errorf("probe point 0 on the parallel engine: %w", err)
				}
				addSched(&sched, sess.Result.Sched)
			}
		}
	}
	out.layers["scenario.point_ms"] = ms(pointT.mean())
	out.layers["workloads.build_ms"] = ms(buildT.mean())
	out.layers["graph.run_ms"] = ms(runT.mean())
	out.layers["graph.host_ns_per_sim_cycle"] = ratio(float64(runT.sum()), float64(cycles))
	out.layers["graph.allocs_per_run"] = ratio(float64(allocs), float64(len(runT)))
	out.layers["des.par_scanned_per_lift"] = sched.ScannedPerLift()
	return raws, nil
}

func addSched(into *des.SchedStats, s des.SchedStats) {
	into.Lifts += s.Lifts
	into.Scanned += s.Scanned
}

// renderProbe re-renders the probe seed's sweep from the recorded raw
// point results through Exec.Remote, so nothing is simulated: the time
// is scenario's decode, row rendering and table assembly alone. The
// table must equal the one the run rendered.
func renderProbe(in probeInput, raws [][]byte, out *outcome) {
	const reps = 20
	s := in.suite
	s.Seed = in.seed
	x := scenario.Exec{Remote: func(idx int) ([]byte, error) { return raws[idx], nil }}
	var table string
	var err error
	start := time.Now()
	for i := 0; i < reps && err == nil; i++ {
		var tb *harness.Table
		if tb, err = scenario.RunStreamExec(in.spec, s, scenario.Sink{}, x); err == nil {
			table = tb.String()
		}
	}
	d := time.Since(start)
	if err == nil {
		err = compareTables("render from raw results", in.table, table)
	}
	out.op(err)
	out.layers["scenario.render_us_per_point"] = us(d) / float64(reps*len(raws))
}

// hashProbe times the spec's content hash, which every submission pays.
func hashProbe(in probeInput, out *outcome) {
	const reps = 200
	start := time.Now()
	var err error
	for i := 0; i < reps && err == nil; i++ {
		_, err = in.spec.Hash()
	}
	out.op(err)
	out.layers["scenario.hash_us"] = us(time.Since(start)) / reps
}

// storeProbe replays the run's own finished sweeps through the store:
// Put, a journal of their streamed rows, disk and memory Gets, and
// ReadRows. Every read must return the bytes written.
func storeProbe(o options, in probeInput, out *outcome) error {
	if len(in.entries) == 0 {
		return fmt.Errorf("store probe: no traced sweep kept its rows")
	}
	root, err := os.MkdirTemp(tmpRoot(o), "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	const rounds = 5
	var put, commit, diskGet, memGet, readRows, appends durations
	for round := 0; round < rounds; round++ {
		dir := filepath.Join(root, fmt.Sprintf("r%d", round))
		putSt, err := store.Open(filepath.Join(dir, "put"), lruCap)
		if err != nil {
			return err
		}
		jSt, err := store.Open(filepath.Join(dir, "journal"), lruCap)
		if err != nil {
			return err
		}
		for _, r := range in.entries {
			e, err := store.NewEntry(in.spec, r.seed, false, r.table, r.csv, "", r.latency)
			if err != nil {
				return err
			}
			start := time.Now()
			err = putSt.Put(e)
			put = append(put, time.Since(start))
			out.op(err)

			d, n, err := journal(jSt, e, in.spec, r)
			out.op(err)
			if err == nil {
				commit = append(commit, d)
				appends = append(appends, n...)
			}
		}
		// A fresh handle has an empty LRU: its first Get reads the disk.
		cold, err := store.Open(filepath.Join(dir, "put"), lruCap)
		if err != nil {
			return err
		}
		for _, r := range in.entries {
			key, err := store.Key(in.spec, r.seed, false)
			if err != nil {
				return err
			}
			for _, into := range []*durations{&diskGet, &memGet} {
				start := time.Now()
				e, ok, err := cold.Get(key)
				*into = append(*into, time.Since(start))
				if err == nil && (!ok || e.Table != r.table) {
					err = fmt.Errorf("store get %s: wrong or missing entry", key)
				}
				out.op(err)
			}
			start := time.Now()
			recs, ok, err := jSt.ReadRows(key)
			readRows = append(readRows, time.Since(start))
			if err == nil && (!ok || len(recs) != len(r.rows)+2) {
				err = fmt.Errorf("store read rows %s: %d records for %d rows", key, len(recs), len(r.rows))
			}
			out.op(err)
		}
	}
	out.layers["store.put_ms"] = ms(put.median())
	out.layers["store.journal_commit_ms"] = ms(commit.median())
	out.layers["store.journal_append_us"] = us(appends.median())
	out.layers["store.get_disk_us"] = us(diskGet.median())
	out.layers["store.get_mem_us"] = us(memGet.median())
	out.layers["store.read_rows_us"] = us(readRows.median())
	return nil
}

// journal writes a sweep's stream the way the service does (start,
// rows, done) and commits it, returning the commit time and each
// append's time.
func journal(st *store.Store, e *store.Entry, sp scenario.Spec, r sweepRun) (time.Duration, durations, error) {
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		return 0, nil, err
	}
	recs := []store.JournalRecord{{Type: "start", SpecID: sp.ID, Rows: len(r.rows), Points: sp.PointCount(false)}}
	for _, p := range r.rows {
		recs = append(recs, store.JournalRecord{Type: "row", Index: p.Index, Cells: p.Cells, Coords: p.Coords})
	}
	recs = append(recs, store.JournalRecord{Type: "done"})
	var appends durations
	for _, rec := range recs {
		start := time.Now()
		err := j.Append(rec)
		appends = append(appends, time.Since(start))
		if err != nil {
			j.Abort()
			return 0, nil, err
		}
	}
	start := time.Now()
	err = st.CommitJournal(j, e)
	return time.Since(start), appends, err
}

// tmpRoot is the directory the benchmark's stores live under.
func tmpRoot(o options) string {
	dir := filepath.Join(o.workdir, "tmp")
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}
