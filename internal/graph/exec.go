package graph

import (
	"errors"
	"fmt"
	"sync"

	"step/internal/des"
	"step/internal/element"
	"step/internal/hbm"
	"step/internal/onchip"
)

// Machine is the simulated SDA a graph runs on: the shared off-chip memory,
// the on-chip scratchpad tier, and channel defaults.
type Machine struct {
	HBM  *hbm.HBM
	Spad *onchip.Scratchpad
	// ChannelDepth is the default FIFO depth for streams.
	ChannelDepth int
	// ChannelLatency is the default FIFO latency in cycles.
	ChannelLatency des.Time
}

// Config parameterizes a run.
type Config struct {
	HBM            hbm.Config
	Onchip         onchip.Config
	ChannelDepth   int
	ChannelLatency des.Time
	// SimWorkers selects the DES engine executing the graph: 0 or 1 runs
	// the sequential reference engine; >= 2 runs the DAM-style
	// conservative parallel engine (per-process local clocks,
	// time-bridged channels). Both engines produce identical Results.
	SimWorkers int
	// Seed parameterizes run-time instantiation: program-IR sources that
	// declare seeded random tiles derive their contents from it, so one
	// compiled Program yields an independent instance per seed. Graphs
	// built directly in Go bake their data in at construction time and
	// ignore it.
	Seed uint64
}

// DefaultConfig matches the evaluation setup of §5.1.
func DefaultConfig() Config {
	return Config{
		HBM:            hbm.DefaultConfig(),
		Onchip:         onchip.DefaultConfig(),
		ChannelDepth:   16,
		ChannelLatency: 1,
	}
}

// Result summarizes a simulated run.
type Result struct {
	// Cycles is the total execution time (first event to last).
	Cycles des.Time
	// OffchipTrafficBytes is total bytes moved to/from off-chip memory.
	OffchipTrafficBytes int64
	OffchipReadBytes    int64
	OffchipWriteBytes   int64
	// PeakOnchipBytes is the scratchpad high-water mark measured during
	// the run (dynamic allocations only; see Graph.SymbolicOnchipBytes for
	// the §4.2 requirement equation).
	PeakOnchipBytes int64
	// TotalFLOPs is the work performed by compute operators.
	TotalFLOPs int64
	// AllocatedComputeBW sums the FLOPs/cycle allocated across operators.
	AllocatedComputeBW int64
	// Sched reports the DES engine's scheduler-contention counters for
	// the run (all zeroes under the sequential engine). Deliberately
	// excluded from result equality: the counters describe how the
	// engine coordinated, not what the simulation computed.
	Sched des.SchedStats
}

// Equal reports whether two results describe the same simulation
// outcome. The scheduler-contention counters are excluded: for
// byte-identical runs they vary across engines and worker counts,
// because they describe how the engine coordinated rather than what
// the simulation computed. Determinism checks must use this instead
// of ==.
func (r Result) Equal(o Result) bool {
	//lint:allow equalfields Sched: engine-coordination counters, not simulation output; they differ across engines and worker counts for byte-identical runs
	return r.Cycles == o.Cycles &&
		r.OffchipTrafficBytes == o.OffchipTrafficBytes &&
		r.OffchipReadBytes == o.OffchipReadBytes &&
		r.OffchipWriteBytes == o.OffchipWriteBytes &&
		r.PeakOnchipBytes == o.PeakOnchipBytes &&
		r.TotalFLOPs == o.TotalFLOPs &&
		r.AllocatedComputeBW == o.AllocatedComputeBW
}

// ComputeUtilization is TotalFLOPs / (AllocatedComputeBW × Cycles).
func (r Result) ComputeUtilization() float64 {
	if r.AllocatedComputeBW == 0 || r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalFLOPs) / (float64(r.AllocatedComputeBW) * float64(r.Cycles))
}

// OperationalIntensity is FLOPs per off-chip byte — the Roofline x-axis
// the symbolic frontend exposes (§4.2).
func (r Result) OperationalIntensity() float64 {
	if r.OffchipTrafficBytes == 0 {
		return 0
	}
	return float64(r.TotalFLOPs) / float64(r.OffchipTrafficBytes)
}

// OffchipBWUtilization is achieved / peak off-chip bandwidth.
func (r Result) OffchipBWUtilization(peakBytesPerCycle int64) float64 {
	if r.Cycles == 0 || peakBytesPerCycle == 0 {
		return 0
	}
	return float64(r.OffchipTrafficBytes) / (float64(peakBytesPerCycle) * float64(r.Cycles))
}

// ErrAlreadyBound is returned by Run when the graph is already executing
// on another goroutine. Engine state (channels, machine, counters) is
// rebuilt per run, but operator instances are shared by every run of one
// graph, so overlapping executions would race. Sequential re-runs are
// legal: per-run operator state is reset at the start of each run.
// Compile the graph into a Program for concurrency-safe repeated runs.
var ErrAlreadyBound = errors.New("graph: already running (concurrent Graph.Run on one graph; compile to a Program and use Program.Run)")

// resettable is implemented by operators that accumulate per-run state
// (captures, store handles); Run resets them so a graph can be executed
// repeatedly with well-defined semantics.
type resettable interface{ ResetRunState() }

// ringSlab is the per-run channel arena: the ring metadata (ready +
// dequeue times) and value storage for every stream channel of a run,
// carved from two slices and recycled through ringSlabPool. The slab may
// only be recycled after the simulation has fully finished — every process
// goroutine has exited — which run guarantees before releasing it.
type ringSlab struct {
	times []des.Time
	vals  []element.Element
}

var ringSlabPool = sync.Pool{New: func() any { return &ringSlab{} }}

// acquireRingSlab returns a slab with room for totalDepth channel slots.
func acquireRingSlab(totalDepth int) *ringSlab {
	s := ringSlabPool.Get().(*ringSlab)
	if cap(s.times) < 2*totalDepth {
		s.times = make([]des.Time, 2*totalDepth)
	}
	if cap(s.vals) < totalDepth {
		s.vals = make([]element.Element, totalDepth)
	}
	s.times = s.times[:2*totalDepth]
	s.vals = s.vals[:totalDepth]
	return s
}

// releaseRingSlab clears the value storage (elements reference tile
// buffers; a pooled slab must not keep them live) and recycles the slab.
func releaseRingSlab(s *ringSlab) {
	clear(s.vals[:cap(s.vals)])
	ringSlabPool.Put(s)
}

// Run validates the graph, maps every node to a DES process and every
// stream to a bounded channel, and executes to completion.
//
// Re-run semantics: running the same graph again sequentially is legal
// and deterministic — per-run operator state (captured streams, store
// regions) is cleared first. A Run that overlaps another Run of the same
// graph returns ErrAlreadyBound.
func (g *Graph) Run(cfg Config) (Result, error) {
	res, _, err := g.runSession(cfg, false)
	return res, err
}

// runSession executes under the reentrancy guard and, when asked,
// snapshots the captured streams before releasing it — a capture
// collected after release could race with the reset of a subsequent
// run (Program.Run's session path needs the snapshot).
func (g *Graph) runSession(cfg Config, collect bool) (Result, map[string][]element.Element, error) {
	if !g.running.CompareAndSwap(false, true) {
		return Result{}, nil, ErrAlreadyBound
	}
	defer g.running.Store(false)
	res, err := g.run(cfg)
	if err != nil {
		return res, nil, err
	}
	var captures map[string][]element.Element
	if collect {
		captures = collectCaptures(g)
	}
	return res, captures, nil
}

// run executes the graph without the reentrancy guard; Program.Run uses
// it under its own serialization.
func (g *Graph) run(cfg Config) (Result, error) {
	if err := g.Finalize(); err != nil {
		return Result{}, fmt.Errorf("graph: invalid program: %w", err)
	}
	for _, n := range g.nodes {
		if r, ok := n.Op.(resettable); ok {
			r.ResetRunState()
		}
	}
	if cfg.ChannelDepth < 1 {
		cfg.ChannelDepth = 1
	}
	sim := des.NewWithWorkers(cfg.SimWorkers)
	machine := &Machine{
		HBM:            hbm.New(cfg.HBM),
		Spad:           onchip.New(cfg.Onchip),
		ChannelDepth:   cfg.ChannelDepth,
		ChannelLatency: cfg.ChannelLatency,
	}
	counters := &Counters{}

	// Channel depths are known up front, so every channel's ring storage is
	// carved out of one pooled slab instead of three allocations per stream.
	// The slab is released after the simulation has fully finished (all
	// process bodies returned inside sim.Run).
	streamDepth := func(s *Stream) int {
		if s.depth > 0 {
			return s.depth
		}
		return cfg.ChannelDepth
	}
	totalDepth := 0
	for _, s := range g.streams {
		totalDepth += streamDepth(s)
	}
	slab := acquireRingSlab(totalDepth)
	defer releaseRingSlab(slab)

	chans := make(map[*Stream]*Chan, len(g.streams))
	off := 0
	for _, s := range g.streams {
		s := s
		depth := streamDepth(s)
		lat := cfg.ChannelLatency
		if s.latency >= 0 {
			lat = des.Time(s.latency)
		}
		// Names are formatted only if a diagnostic (deadlock report, channel
		// misuse panic) needs them.
		nameFn := func() string {
			return fmt.Sprintf("s%d:%s->%s", s.id, producerName(s), consumerName(s))
		}
		chans[s] = des.NewChanOn(sim, nameFn, depth, lat,
			slab.times[2*off:2*off+depth], slab.times[2*off+depth:2*off+2*depth],
			slab.vals[off:off+depth])
		off += depth
	}
	procs := make(map[*Node]*des.Process, len(g.nodes))
	for _, n := range g.nodes {
		node := n
		ctx := &Ctx{Machine: machine, Counters: counters}
		for _, in := range node.Inputs {
			ctx.In = append(ctx.In, chans[in])
		}
		for _, out := range node.Outputs {
			ctx.Out = append(ctx.Out, chans[out])
		}
		procs[node] = sim.SpawnFn(func() string {
			return fmt.Sprintf("n%d:%s", node.ID, node.Op.Name())
		}, func(p *des.Process) error {
			ctx.P = p
			return node.Op.Run(ctx)
		})
	}
	// Bind every channel to its producing and consuming process: the
	// parallel engine's conservative Select and wake-bound propagation
	// need the sender's local clock as each channel's time frontier.
	for _, s := range g.streams {
		ch := chans[s]
		if s.prod != nil {
			ch.BindSender(procs[s.prod])
		}
		if s.cons != nil {
			ch.BindRecver(procs[s.cons])
		}
	}
	cycles, err := sim.Run()
	// Deterministic deferred scratchpad accounting: one replay of the
	// event log in (time, process, order) order yields the peak and any
	// capacity violation.
	_, peakOnchip, spadErr := machine.Spad.Resolve()
	res := Result{
		Cycles:              cycles,
		OffchipTrafficBytes: machine.HBM.TrafficBytes(),
		OffchipReadBytes:    machine.HBM.ReadBytes(),
		OffchipWriteBytes:   machine.HBM.WriteBytes(),
		PeakOnchipBytes:     peakOnchip,
		TotalFLOPs:          counters.FLOPs,
		AllocatedComputeBW:  g.AllocatedComputeBW(),
		Sched:               sim.SchedStats(),
	}
	if err == nil {
		err = spadErr
	}
	if err != nil {
		return res, fmt.Errorf("graph: run failed: %w", err)
	}
	return res, nil
}

func consumerName(s *Stream) string {
	if s.cons == nil {
		return "?"
	}
	return s.cons.Op.Name()
}
