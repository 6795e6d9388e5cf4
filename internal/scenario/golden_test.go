package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"step/internal/harness"
)

// update rewrites the golden files instead of asserting against them:
//
//	go test ./internal/scenario -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite testdata/golden files and testdata/decoder_schedules.txt")

// goldenSuite is the configuration the golden artifacts are rendered
// under; `make serve-smoke` POSTs the same seed/quick, so the HTTP
// path is diffed against the identical bytes.
func goldenSuite() harness.Suite { return harness.Suite{Seed: 7, Quick: true} }

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// TestGoldenTables pins the rendered table of every canned spec (quick
// mode, seed 7) to a committed artifact: the determinism contract is
// guarded by bytes in the tree, not only by self-comparison. A diff
// here means the simulator's output changed — either fix the
// regression or, for an intended change, re-render with -update and
// review the diff like any other code change.
func TestGoldenTables(t *testing.T) {
	for _, sp := range Builtin() {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := Run(sp, goldenSuite())
			if err != nil {
				t.Fatal(err)
			}
			matchFile(t, goldenPath(sp.ID), tb.String())
		})
	}
}

// matchFile diffs got against the committed file at path, or rewrites
// the file under -update.
func matchFile(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no committed table %s (render with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("table diverges from %s:\n%s", path, diffLines(string(want), got))
	}
}

// TestGoldenFilesMatchRegistry fails when a golden file outlives its
// canned spec, so renames cannot leave stale artifacts behind.
func TestGoldenFilesMatchRegistry(t *testing.T) {
	if *update {
		t.Skip("golden files are being rewritten")
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden files committed")
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if _, ok := LookupBuiltin(id); !ok {
			t.Errorf("golden file %s has no canned spec", f)
		}
	}
}

// diffLines renders a small first-divergence report: full table diffs
// are more noise than signal, the first differing line is the lead.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "<eof>", "<eof>"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n golden: %s\n    got: %s", i+1, wl, gl)
		}
	}
	return "(no line diff — lengths differ)"
}
