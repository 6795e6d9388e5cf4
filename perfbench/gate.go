package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"step/internal/harness"
	"step/internal/scenario"
)

// goldenDir holds the committed tables of every canned spec, rendered in
// quick mode at seed 7.
const goldenDir = "internal/scenario/testdata/golden"

// goldenGate renders every committed golden table again and counts each
// as one checked operation. It runs outside the timed region.
func goldenGate(out *outcome) error {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no golden tables under %s (run from the repository root)", goldenDir)
	}
	sort.Strings(files)
	for _, f := range files {
		out.op(checkGolden(f))
	}
	return nil
}

func checkGolden(path string) error {
	id := strings.TrimSuffix(filepath.Base(path), ".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, ok := scenario.LookupBuiltin(id)
	if !ok {
		return fmt.Errorf("golden %s: no canned spec of that name", id)
	}
	tb, err := scenario.Run(sp, harness.Suite{Seed: 7, Quick: true, Workers: nproc()})
	if err != nil {
		return fmt.Errorf("golden %s: %w", id, err)
	}
	return compareTables("golden "+id, string(want), tb.String())
}

// checkOtherEngine re-runs a finished sweep on the other DES engine;
// the two tables must be byte-identical.
func checkOtherEngine(sp scenario.Spec, other harness.Suite, r sweepRun) error {
	again, err := sweep(sp, other, r.seed, nil, "")
	if err != nil {
		return err
	}
	return compareTables(fmt.Sprintf("%s seed %d on the other engine", sp.ID, r.seed), r.table, again.table)
}

// checkServed runs a served sample's spec and seed in process; the
// served table must be byte-identical to scenario's own.
func checkServed(sp scenario.Spec, smp sample, rec *recorder) (sweepRun, error) {
	r, err := sweep(sp, harness.Suite{Workers: nproc()}, smp.seed, rec, "gate-"+smp.what)
	if err != nil {
		return r, err
	}
	return r, compareTables(fmt.Sprintf("served %s seed %d", smp.what, smp.seed), r.table, smp.table)
}

// compareTables fails, naming the first differing line, unless the two
// tables are byte-identical.
func compareTables(what, want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			return fmt.Errorf("%s: tables differ at line %d", what, i+1)
		}
	}
}
