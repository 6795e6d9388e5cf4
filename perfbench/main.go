// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints, as the last line of standard output, one
// JSON object with the run's correctness verdict and its metrics:
//
//	bash perfbench/run.sh --workload tiling-seq --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run records spans around every call into a
// layer, runs the layer probes on the workload's own inputs, writes the
// spans to one file and reports the per-layer metrics instead. README.md
// defines every metric and names the end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one end-to-end metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics every workload reports. For
// serve-mixed a "sweep" is a miss: a POST of a never-seen seed followed
// to the stream's terminal event. Hits are reported per layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sweeps_per_s", "1/s", "higher"},
	{"points_per_s", "1/s", "higher"},
	{"sweep_p50_ms", "ms", "lower"},
	{"sweep_tail_ms", "ms", "lower"},
	{"first_row_mean_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_sweep", "MB", "lower"},
}

// layerDef is one per-layer metric and the end-to-end metric, on the
// named workload, that it should move.
type layerDef struct {
	name, unit, better, target string
}

var perLayer = []layerDef{
	{"des.seq_handoff_ns", "ns", "lower", "points_per_s, sweep_p50_ms on tiling-seq; flat on decoder-par"},
	{"des.seq_element_ns", "ns", "lower", "points_per_s, sweep_p50_ms on tiling-seq; flat on decoder-par"},
	{"des.par_element_ns", "ns", "lower", "sweep_p50_ms on decoder-par; flat on tiling-seq"},
	{"des.par_scanned_per_lift", "ratio", "lower", "sweep_p50_ms on decoder-par; flat on tiling-seq"},
	{"graph.run_ms", "ms", "lower", "points_per_s on tiling-seq and decoder-par"},
	{"graph.host_ns_per_sim_cycle", "ns", "lower", "points_per_s on tiling-seq and decoder-par"},
	{"graph.allocs_per_run", "count", "lower", "alloc_mb_per_sweep on tiling-seq and decoder-par"},
	{"workloads.build_ms", "ms", "lower", "points_per_s, alloc_mb_per_sweep on tiling-seq and decoder-par"},
	{"harness.busy_ratio", "ratio", "higher", "sweep_p50_ms on tiling-seq"},
	{"harness.slowest_point_share", "ratio", "lower", "sweep_tail_ms on tiling-seq"},
	{"scenario.point_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"scenario.render_us_per_point", "us", "lower", "first_row_mean_ms on serve-mixed"},
	{"scenario.hash_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"store.get_mem_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"store.get_disk_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"store.read_rows_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"store.put_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"store.journal_append_us", "us", "lower", "first_row_mean_ms on serve-mixed"},
	{"store.journal_commit_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"store.mem_hit_share", "ratio", "higher", "service.hit_rtt_us on serve-mixed"},
	{"service.queue_wait_ms", "ms", "lower", "sweep_tail_ms on serve-mixed"},
	{"service.run_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"service.post_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"service.table_us", "us", "lower", "service.hit_rtt_us on serve-mixed"},
	{"service.hit_rtt_us", "us", "lower", "sweeps_per_s on serve-mixed (the hit half of each client's loop)"},
	{"service.cache_hit_ratio", "ratio", "higher", "sweeps_per_s on serve-mixed"},
	{"service.failed_jobs", "count", "lower", "sweeps_per_s on serve-mixed"},
	{"fabric.lease_wait_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"fabric.result_post_ms", "ms", "lower", "sweep_p50_ms on serve-mixed"},
	{"fabric.leases", "count", "higher", "points_per_s on serve-mixed"},
	{"fabric.accepted_ratio", "ratio", "higher", "points_per_s on serve-mixed"},
	{"fabric.gone_410", "count", "lower", "points_per_s on serve-mixed"},
	{"fabric.heartbeats", "count", "lower", "sweep_p50_ms on serve-mixed"},
	{"trace.overhead_pct", "%", "lower", "every end-to-end metric: traced against untraced operations of the same run"},
}

// workload is one benchmark input set.
type workload struct {
	name, why string
	run       func(o options, out *outcome) error
}

var benchWorkloads = []workload{
	{"tiling-seq", "largest simulations: host time is sequential-engine dispatch plus graph and ops work; store, service and fabric idle", runTilingSeq},
	{"decoder-par", "Fig. 17 decoder on the parallel engine with attention, MoE and time-multiplexing together; the only par.go workload", runDecoderPar},
	{"serve-mixed", "served fig15 misses via a fabric worker alternating with cache hits: per-request service, store, journal and lease costs", runServeMixed},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string // scratch space for stores and the span file
}

// window is the timed region's length.
func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// setups is how many times a run sets its workload up; the median is
// setup_s. A traced run reports no setup time and sets up once.
func (o options) setups() int {
	if o.trace {
		return 1
	}
	return 3
}

// outcome is what one workload run measured.
type outcome struct {
	setups    durations
	sweeps    durations // simulated sweeps completed in the timed window
	firstRows durations
	points    int // points those sweeps simulated
	window    time.Duration
	alloc     uint64 // bytes allocated during the timed window
	rssMB     float64

	attempted, failed int
	errs              []string

	rec    *recorder
	layers map[string]float64
	extra  map[string]any
}

// op counts one attempted operation and, when err is set, its failure;
// the first ten failures are kept for the report.
func (out *outcome) op(err error) {
	out.attempted++
	if err == nil {
		return
	}
	out.failed++
	if len(out.errs) < 10 {
		out.errs = append(out.errs, err.Error())
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: tiling-seq, decoder-par or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every spec seed the program sees derives from it")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for stores and the span file")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	res, err := measure(o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

// measure runs the workload and returns its result line. It also prints
// the report (stamp, extra facts, layer self times) to standard output.
func measure(o options) (*result, error) {
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == o.workload {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	out := &outcome{layers: map[string]float64{}, extra: map[string]any{}}
	if o.trace {
		out.rec = newRecorder()
	}
	if err := w.run(o, out); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(out.sweeps) == 0 || out.attempted == 0 {
		return nil, fmt.Errorf("%s: no sweep completed", w.name)
	}

	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	report := map[string]any{
		"workload": w.name, "stamp": newStamp(o.seed), "trace": o.trace,
		"error_ratio": ratio(float64(out.failed), float64(out.attempted)),
		"errors":      out.errs,
	}
	for k, v := range out.extra {
		report[k] = v
	}
	if o.trace {
		for _, d := range perLayer {
			v, ok := out.layers[d.name]
			if !ok {
				return nil, fmt.Errorf("%s: layer metric %s was not measured", w.name, d.name)
			}
			res.Metrics[d.name] = metric{finite(v), d.unit}
		}
		path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := out.rec.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		report["span_file"] = path
		self := map[string]float64{}
		for layer, d := range out.rec.selfTimes() {
			self[layer] = ms(d)
		}
		report["self_ms"] = self
	} else {
		tail, pct, n := out.sweeps.tail()
		vals := map[string]float64{
			"setup_s":            out.setups.median().Seconds(),
			"sweeps_per_s":       ratio(float64(len(out.sweeps)), out.window.Seconds()),
			"points_per_s":       ratio(float64(out.points), out.window.Seconds()),
			"sweep_p50_ms":       ms(out.sweeps.median()),
			"sweep_tail_ms":      ms(tail),
			"first_row_mean_ms":  ms(out.firstRows.mean()),
			"peak_rss_mb":        out.rssMB,
			"alloc_mb_per_sweep": ratio(float64(out.alloc)/(1<<20), float64(len(out.sweeps))),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
		}
		report["sweep_tail_percentile"] = pct
		report["sweep_samples"] = n
		report["setup_samples_s"] = secondsOf(out.setups)
	}
	if err := printReport(report); err != nil {
		return nil, err
	}
	return res, nil
}

func secondsOf(d durations) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v.Seconds()
	}
	return out
}

// printReport writes the run's context as one JSON line.
func printReport(report map[string]any) error {
	b, err := json.Marshal(report)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Printf("report %s\n", b)
	return nil
}

// nproc is the client and worker count the workloads are sized by.
func nproc() int { return runtime.NumCPU() }
