package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"step/internal/harness"
	"step/internal/scenario"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs: the golden tables and BENCHMARK.json are found from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, the metrics the
// program emits and the README's tables in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join("perfbench", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)

	if len(bf.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if !strings.Contains(doc, "`"+d.name+"`") {
			t.Errorf("README.md does not define %s", d.name)
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		// The README's table records each layer metric's target: the
		// end-to-end metric and workload it should move.
		if !strings.Contains(doc, "| `"+d.name+"` | "+d.unit+" | "+d.target+" |") {
			t.Errorf("README.md has no table row for %s with target %q", d.name, d.target)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at the shortest length,
// untraced and traced, and checks the result line carries exactly the
// metrics BENCHMARK.json names and that the correctness gate passed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range benchWorkloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				o := options{workload: w.name, seed: 3, seconds: 1, trace: trace, workdir: t.TempDir()}
				res, err := measure(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				for _, d := range endToEnd {
					if !trace {
						want[d.name] = d.unit
					}
				}
				for _, d := range perLayer {
					if trace {
						want[d.name] = d.unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("%s: end-to-end value %v is not positive", name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed3.json", w.name))); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestGateCatchesCorruptTable flips one byte of a table on each of the
// gate's three paths and expects each to report the mismatch.
func TestGateCatchesCorruptTable(t *testing.T) {
	corrupt := func(s string) string {
		i := strings.LastIndexAny(s, "0123456789")
		if i < 0 {
			t.Fatalf("table has no digit to corrupt:\n%s", s)
		}
		d := byte('0')
		if s[i] == '0' {
			d = '1'
		}
		return s[:i] + string(d) + s[i+1:]
	}

	t.Run("golden", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join(goldenDir, "fig9.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(filepath.Join(goldenDir, "fig9.txt")); err != nil {
			t.Fatalf("committed table: %v", err)
		}
		path := filepath.Join(t.TempDir(), "fig9.txt")
		if err := os.WriteFile(path, []byte(corrupt(string(want))), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(path); err == nil {
			t.Error("corrupted golden table passed the gate")
		}
	})

	sp := scenario.Fig9()
	r, err := sweep(sp, harness.Suite{Workers: 2}, 11, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("other-engine", func(t *testing.T) {
		par := harness.Suite{Workers: 1, SimWorkers: parWorkers()}
		if err := checkOtherEngine(sp, par, r); err != nil {
			t.Fatalf("intact table: %v", err)
		}
		bad := r
		bad.table = corrupt(r.table)
		if err := checkOtherEngine(sp, par, bad); err == nil {
			t.Error("corrupted table passed the engine check")
		}
	})
	t.Run("served", func(t *testing.T) {
		if _, err := checkServed(sp, sample{"miss", r.seed, r.table}, nil); err != nil {
			t.Fatalf("intact table: %v", err)
		}
		if _, err := checkServed(sp, sample{"miss", r.seed, corrupt(r.table)}, nil); err == nil {
			t.Error("corrupted served table passed the gate")
		}
	})
}

// TestTail pins the tail rule: the sample with ten samples above it.
func TestTail(t *testing.T) {
	var d durations
	for i := 100; i >= 1; i-- {
		d = append(d, durationOf(i))
	}
	v, pct, n := d.tail()
	if v != durationOf(90) || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := d[:5].tail(); v != durationOf(100) || pct != 100 {
		t.Errorf("tail of five samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func durationOf(i int) time.Duration { return time.Duration(i) }
