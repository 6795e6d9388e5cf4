package workloads

import (
	"reflect"
	"testing"

	"step/internal/graph"
	"step/internal/tile"
	"step/internal/trace"
)

func TestSwiGLUFunctionalCorrectness(t *testing.T) {
	cfg := SwiGLUConfig{
		Batch: 8, Hidden: 16, Inter: 32,
		BatchTile: 4, InterTile: 8,
		Functional: true, Seed: 3,
	}
	sw, err := BuildSwiGLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Program.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sw.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !tile.Equal(got, sw.Reference(), 1e-2) {
		t.Fatal("SwiGLU output mismatch")
	}
}

func TestSwiGLUTrafficExact(t *testing.T) {
	cfg := DefaultSwiGLUConfig()
	sw, err := BuildSwiGLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sw.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Result
	if res.OffchipTrafficBytes != SwiGLUTrafficBytes(cfg) {
		t.Fatalf("traffic %d, want %d", res.OffchipTrafficBytes, SwiGLUTrafficBytes(cfg))
	}
	// The symbolic frontend's traffic equation matches the measurement.
	sym, err := sw.Graph.SymbolicOffchipTrafficBytes().Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sym != res.OffchipTrafficBytes {
		t.Fatalf("symbolic %d != measured %d", sym, res.OffchipTrafficBytes)
	}
}

func TestSwiGLUSmallerTilesMoreTraffic(t *testing.T) {
	// The Fig. 8 memory-traffic trend: smaller batch tiles reload weights
	// more often.
	base := DefaultSwiGLUConfig()
	var last int64 = -1
	for _, bt := range []int{64, 32, 16} {
		cfg := base
		cfg.BatchTile = bt
		sw, err := BuildSwiGLU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sw.Program.Run()
		if err != nil {
			t.Fatal(err)
		}
		res := sess.Result
		if last >= 0 && res.OffchipTrafficBytes <= last {
			t.Fatalf("tile %d: traffic %d should exceed %d", bt, res.OffchipTrafficBytes, last)
		}
		last = res.OffchipTrafficBytes
	}
}

func TestSwiGLURejectsBadTiles(t *testing.T) {
	cfg := DefaultSwiGLUConfig()
	cfg.BatchTile = 7
	if _, err := BuildSwiGLU(cfg); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestRunDecoderVariants(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	m.Layers = 4
	kv := trace.SampleKVLengths(16, 512, trace.VarMed, 3)
	run := func(cfg DecoderConfig) DecoderResult {
		t.Helper()
		cfg.Model = m
		cfg.Batch = 16
		cfg.KVLens = kv
		cfg.SampleLayers = 1
		cfg.Skew = trace.SkewHeavy
		cfg.Seed = 5
		res, err := RunDecoder(cfg, graph.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(DecoderConfig{MoETile: 16, AttnStrategy: StaticInterleaved})
	dynamic := run(DecoderConfig{MoEDynamic: true, MoERegions: 16, AttnStrategy: DynamicParallel})
	if static.CyclesTotal == 0 || dynamic.CyclesTotal == 0 {
		t.Fatal("empty results")
	}
	if dynamic.AllocatedComputeBW >= static.AllocatedComputeBW {
		t.Fatalf("dynamic alloc %d should be below static %d (time-multiplexing)",
			dynamic.AllocatedComputeBW, static.AllocatedComputeBW)
	}
	if len(static.CyclesPerLayer) != 1 {
		t.Fatalf("per-layer cycles %v", static.CyclesPerLayer)
	}
}

// TestAttentionStageSharedAcrossSchedules: an attention stage simulated
// under one MoE schedule stands in for another schedule with the same
// attention strategy, and every sampled layer adds that one stage.
func TestAttentionStageSharedAcrossSchedules(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	m.Layers = 4
	base := DecoderConfig{
		Model: m, Batch: 16, KVLens: trace.SampleKVLengths(16, 512, trace.VarMed, 3),
		AttnStrategy: StaticInterleaved, SampleLayers: 2, Skew: trace.SkewHeavy, Seed: 5,
	}
	tile16, tile64 := base, base
	tile16.MoETile, tile64.MoETile = 16, 64
	stage, err := SimulateAttentionStage(tile16, graph.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunDecoderLayers(tile64, stage, graph.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	own, err := RunDecoder(tile64, graph.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, own) {
		t.Fatalf("shared stage %+v, own stage %+v", shared, own)
	}
	if len(own.CyclesPerLayer) != 2 {
		t.Fatalf("per-layer cycles %v", own.CyclesPerLayer)
	}
	for _, c := range own.CyclesPerLayer {
		if c <= stage.Result.Cycles {
			t.Fatalf("layer cycles %d do not exceed the attention stage's %d", c, stage.Result.Cycles)
		}
	}
}

func TestRunDecoderRejectsBadKV(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	_, err := RunDecoder(DecoderConfig{Model: m, Batch: 8, KVLens: []int{1}}, graph.DefaultConfig())
	if err == nil {
		t.Fatal("expected KV length mismatch error")
	}
}
