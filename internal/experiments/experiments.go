// Package experiments regenerates every table and figure of the paper's
// evaluation: one function per artifact, each producing the same
// rows/series the paper reports, runnable from the CLI (`stepctl exp`),
// from benchmarks (bench_test.go), or programmatically.
//
// Rendering (harness.Table) and fan-out (harness.Suite, its worker pool,
// harness.ParMap) live in internal/harness and are shared with the
// declarative scenario subsystem (internal/scenario); the pure-sweep
// figures (9, 10, 15, 19, 20) are registered here as canned scenario
// specs so one code path serves both the paper registry and
// user-defined sweeps.
package experiments

import (
	"step/internal/harness"
)

// Runner is an experiment entry point.
type Runner struct {
	ID   string
	Desc string
	Run  func(harness.Suite) (*harness.Table, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Landscape of programming abstractions for SDAs", func(s harness.Suite) (*harness.Table, error) { return Table1(), nil }},
		{"fig1", "SDA vs GPU effective bandwidth (roofline reconstruction)", func(s harness.Suite) (*harness.Table, error) { return Figure1(), nil }},
		{"fig8", "Simulator validation vs fine-grained reference (SwiGLU tile sweep)", Figure8},
		{"fig9", "Dynamic tiling Pareto, batch 64", Figure9},
		{"fig10", "Dynamic tiling Pareto, batch 1024", Figure10},
		{"fig12", "Configuration time-multiplexing: compute utilization", Figure12},
		{"fig13", "Configuration time-multiplexing: resources", Figure13},
		{"fig14", "Dynamic parallelization vs static interleaved (KV variance)", Figure14},
		{"fig15", "Dynamic vs static coarse across batch sizes", Figure15},
		{"fig17", "End-to-end decoder models", Figure17},
		{"fig18", "Hierarchical tiling transformation", Figure18},
		{"fig19", "Off-chip traffic vs on-chip memory, batch 64", Figure19},
		{"fig20", "Off-chip traffic vs on-chip memory, batch 1024", Figure20},
		{"fig21", "Parallelization ablation", Figure21},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
