package experiments

import (
	"step/internal/harness"
	"step/internal/scenario"
)

// The tiling-sweep figures are pure sweeps: each is a canned scenario
// spec (internal/scenario), so the paper registry and user-defined
// `stepctl sweep` specs share one compiler.

// Figure9 is the batch-64 dynamic-tiling Pareto experiment.
func Figure9(s harness.Suite) (*harness.Table, error) { return scenario.Run(scenario.Fig9(), s) }

// Figure10 is the batch-1024 variant.
func Figure10(s harness.Suite) (*harness.Table, error) { return scenario.Run(scenario.Fig10(), s) }

// Figure19 reports the off-chip-traffic view of the batch-64 sweep.
func Figure19(s harness.Suite) (*harness.Table, error) { return scenario.Run(scenario.Fig19(), s) }

// Figure20 reports the off-chip-traffic view of the batch-1024 sweep.
func Figure20(s harness.Suite) (*harness.Table, error) { return scenario.Run(scenario.Fig20(), s) }
