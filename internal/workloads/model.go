package workloads

import (
	"fmt"

	"step/internal/des"
	"step/internal/graph"
	"step/internal/trace"
)

// DecoderScheduleKind names the Fig. 17 configurations.
type DecoderScheduleKind int

const (
	// StaticMemMatched uses the static MoE tile whose on-chip memory is
	// closest to the dynamic schedule's, with static-interleaved attention.
	StaticMemMatched DecoderScheduleKind = iota
	// StaticPerfMatched uses the static MoE tile whose cycles are closest
	// to the dynamic schedule's, with static-interleaved attention.
	StaticPerfMatched
	// DynamicSchedule uses dynamic tiling, dynamic parallelization, and
	// (when Regions < NumExperts) configuration time-multiplexing.
	DynamicSchedule
)

func (k DecoderScheduleKind) String() string {
	switch k {
	case StaticMemMatched:
		return "static-mem-matched"
	case StaticPerfMatched:
		return "static-perf-matched"
	default:
		return "dynamic"
	}
}

// DecoderConfig parameterizes the end-to-end decoder evaluation: each
// Transformer decoder layer comprises QKV generation + attention + MoE.
// Attention (with QKV fused in) parallelizes the batch dimension by
// AttnRegions; MoE uses expert parallelism with the given tiling.
type DecoderConfig struct {
	Model ModelConfig
	Batch int
	// KVLens holds per-request KV lengths (median-σ trace per Fig. 17).
	KVLens []int
	// MoE schedule.
	MoETile    int // static tile (ignored when MoEDynamic)
	MoEDynamic bool
	MoERegions int // < NumExperts enables time-multiplexing
	// Attention schedule.
	AttnStrategy ParallelStrategy
	AttnRegions  int
	// SampleLayers is how many layers to simulate (each with its own
	// routing trace); the per-layer average scales to Model.Layers.
	SampleLayers int
	Skew         trace.Skew
	Seed         uint64
}

// DecoderResult aggregates the end-to-end metrics of Fig. 17.
type DecoderResult struct {
	// CyclesTotal is the modeled full-model latency (average sampled layer
	// × layer count).
	CyclesTotal des.Time
	// CyclesPerLayer lists the sampled per-layer latencies.
	CyclesPerLayer []des.Time
	// OnchipBytes is the per-layer on-chip requirement (attention regions
	// + MoE §4.2 equation).
	OnchipBytes int64
	// AllocatedComputeBW sums the FLOPs/cycle allocated per layer.
	AllocatedComputeBW int64
	// TrafficBytes is the total off-chip traffic across sampled layers,
	// scaled to the full model.
	TrafficBytes int64
}

// AttentionStage is one simulated decoder attention stage (QKV fused).
// It depends only on the model, the KV-length trace, the attention
// strategy and its regions, never on the layer, so one simulation
// stands in for every sampled layer and for every MoE schedule that
// shares the attention schedule.
type AttentionStage struct {
	Result graph.Result
	// OnchipBytes evaluates the stage's §4.2 on-chip equation.
	OnchipBytes int64
	// AllocatedComputeBW is the FLOPs/cycle the stage allocates.
	AllocatedComputeBW int64
}

// withDefaults validates cfg and fills the SampleLayers and AttnRegions
// defaults.
func (cfg DecoderConfig) withDefaults() (DecoderConfig, error) {
	if err := cfg.Model.Validate(); err != nil {
		return cfg, err
	}
	if cfg.SampleLayers < 1 {
		cfg.SampleLayers = 2
	}
	if cfg.AttnRegions < 1 {
		cfg.AttnRegions = 4
	}
	if len(cfg.KVLens) != cfg.Batch {
		return cfg, fmt.Errorf("workloads: %d KV lengths for batch %d", len(cfg.KVLens), cfg.Batch)
	}
	return cfg, nil
}

// SimulateAttentionStage builds and runs the attention stage of cfg's
// decoder once. Its MoE fields are ignored.
func SimulateAttentionStage(cfg DecoderConfig, runCfg graph.Config) (AttentionStage, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return AttentionStage{}, err
	}
	attn, err := BuildAttention(AttentionConfig{
		Model:      cfg.Model,
		KVLens:     cfg.KVLens,
		Strategy:   cfg.AttnStrategy,
		Regions:    cfg.AttnRegions,
		KVChunk:    64,
		IncludeQKV: true,
	})
	if err != nil {
		return AttentionStage{}, fmt.Errorf("workloads: attention: %w", err)
	}
	sess, err := attn.Program.Run(graph.WithConfig(runCfg))
	if err != nil {
		return AttentionStage{}, fmt.Errorf("workloads: attention: %w", err)
	}
	onchip, err := attn.Graph.SymbolicOnchipBytes().Eval(nil)
	if err != nil {
		// Attention graphs have only static dims in their equations;
		// a symbol here is a bug.
		return AttentionStage{}, fmt.Errorf("workloads: attention onchip: %w", err)
	}
	return AttentionStage{
		Result:             sess.Result,
		OnchipBytes:        onchip,
		AllocatedComputeBW: attn.Graph.AllocatedComputeBW(),
	}, nil
}

// RunDecoderLayers simulates cfg.SampleLayers MoE layers, each with its
// own routing trace, and adds attn (cfg's attention stage, from
// SimulateAttentionStage) to every one of them.
func RunDecoderLayers(cfg DecoderConfig, attn AttentionStage, runCfg graph.Config) (DecoderResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return DecoderResult{}, err
	}
	var out DecoderResult
	var sumCycles des.Time
	for layer := 0; layer < cfg.SampleLayers; layer++ {
		routing, err := trace.SampleExpertRouting(cfg.Batch, cfg.Model.NumExperts, cfg.Model.TopK,
			cfg.Skew, cfg.Seed+uint64(layer)*977)
		if err != nil {
			return out, err
		}
		moe, err := BuildMoELayer(MoELayerConfig{
			Model:    cfg.Model,
			Batch:    cfg.Batch,
			TileSize: cfg.MoETile,
			Dynamic:  cfg.MoEDynamic,
			Regions:  cfg.MoERegions,
			Routing:  routing,
			Seed:     cfg.Seed + uint64(layer),
		})
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d moe: %w", layer, err)
		}
		moeSess, err := moe.Program.Run(graph.WithConfig(runCfg))
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d moe: %w", layer, err)
		}

		moeRes := moeSess.Result
		layerCycles := attn.Result.Cycles + moeRes.Cycles
		out.CyclesPerLayer = append(out.CyclesPerLayer, layerCycles)
		sumCycles += layerCycles
		out.TrafficBytes += attn.Result.OffchipTrafficBytes + moeRes.OffchipTrafficBytes
		if layer == 0 {
			moeOnchip, err := moe.OnchipBytes()
			if err != nil {
				return out, err
			}
			out.OnchipBytes = moeOnchip + attn.OnchipBytes
			out.AllocatedComputeBW = moe.Graph.AllocatedComputeBW() + attn.AllocatedComputeBW
		}
	}
	layers := des.Time(cfg.Model.Layers)
	out.CyclesTotal = sumCycles / des.Time(cfg.SampleLayers) * layers
	out.TrafficBytes = out.TrafficBytes / int64(cfg.SampleLayers) * int64(cfg.Model.Layers)
	return out, nil
}

// RunDecoder simulates the end-to-end decoder under the given schedule:
// the attention stage once, then every sampled MoE layer on top of it.
func RunDecoder(cfg DecoderConfig, runCfg graph.Config) (DecoderResult, error) {
	attn, err := SimulateAttentionStage(cfg, runCfg)
	if err != nil {
		return DecoderResult{}, err
	}
	return RunDecoderLayers(cfg, attn, runCfg)
}
