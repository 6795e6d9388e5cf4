package scenario

import (
	"path/filepath"
	"testing"

	"step/internal/harness"
)

// TestDecoderSchedulesFixture pins the committed decoder example at full
// sampling depth (two sampled layers, so the attention stage is shared
// across layers) and over two batch sizes and three schedules (so it is
// shared across schedules but never across batches). The spec's own
// Workers x SimWorkers matrix must also agree. Quick mode samples a
// single layer, so the golden tables do not cover this.
func TestDecoderSchedulesFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode decoder matrix")
	}
	sp, err := Load("../../examples/specs/decoder_schedules.json")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Run(sp, harness.Suite{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	matchFile(t, filepath.Join("testdata", "decoder_schedules.txt"), tb.String())
}
