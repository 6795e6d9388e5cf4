package main

import (
	"fmt"
	"strconv"
	"strings"

	"step/internal/graph"
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/trace"
	"step/internal/workloads"
)

// pointBuild rebuilds one grid point of a benchmark spec from the
// workload builders, the way the scenario compiler for its kind does, so
// the graph and workloads layers can be timed apart. The probe checks
// that cycles() equals the cycles the point's RunPoint result reports,
// which proves the rebuilt programs are the ones the sweep simulates.
type pointBuild struct {
	build  func() ([]*graph.Program, error)
	opts   []graph.RunOption
	cycles func(res []graph.Result) uint64
}

// buildPoint covers the three kinds the workloads use, with the fields
// their specs set; any other field makes it refuse rather than guess.
func buildPoint(sp scenario.Spec, s harness.Suite, idx int) (pointBuild, error) {
	if len(sp.Groups) > 0 || len(sp.KVHeads) > 0 || len(sp.KVMeans) > 0 || sp.KVMean != 0 ||
		sp.KVVariance != "" || sp.MoERegions != 0 || sp.Regions != 0 || sp.KVChunk != 0 || s.Quick {
		return pointBuild{}, fmt.Errorf("spec %s: point rebuild does not cover its fields", sp.ID)
	}
	models := make([]workloads.ModelConfig, len(sp.Models))
	for i, ms := range sp.Models {
		m, err := ms.Resolve()
		if err != nil {
			return pointBuild{}, err
		}
		models[i] = m.Scaled(sp.Scale)
	}
	cfg := s.GraphConfig()
	single := func(res []graph.Result) uint64 { return uint64(res[0].Cycles) }
	const kvMean, regions, kvChunk = 2048, 4, 64 // scenario defaults

	switch sp.Kind {
	case scenario.KindMoETiling:
		nT := len(sp.Tiles) + 1 // the static tiles, then the dynamic point
		m, j := models[idx/nT], idx%nT
		dynCap := sp.DynamicCap
		if dynCap <= 0 && sp.Batch > 256 {
			dynCap = 128
		}
		return pointBuild{
			build: func() ([]*graph.Program, error) {
				routing, err := trace.SampleExpertRouting(sp.Batch, m.NumExperts, m.TopK, trace.SkewHeavy, s.Seed)
				if err != nil {
					return nil, err
				}
				lc := workloads.MoELayerConfig{Model: m, Batch: sp.Batch, DynamicCap: dynCap, Routing: routing, Seed: s.Seed}
				if j == len(sp.Tiles) {
					lc.Dynamic = true
				} else {
					lc.TileSize = sp.Tiles[j]
				}
				l, err := workloads.BuildMoELayer(lc)
				if err != nil {
					return nil, err
				}
				return []*graph.Program{l.Program}, nil
			},
			opts:   []graph.RunOption{graph.WithConfig(cfg), graph.WithSeed(s.Seed)},
			cycles: single,
		}, nil

	case scenario.KindAttention:
		if !sp.SeedPerBatch || len(sp.Batches) == 0 {
			return pointBuild{}, fmt.Errorf("spec %s: point rebuild expects a per-batch-seeded batch axis", sp.ID)
		}
		nS, nB := len(sp.Strategies), len(sp.Batches)
		m, b := models[idx/(nS*nB)], sp.Batches[idx/nS%nB]
		strat, err := attnStrategy(sp.Strategies[idx%nS])
		if err != nil {
			return pointBuild{}, err
		}
		return pointBuild{
			build: func() ([]*graph.Program, error) {
				a, err := workloads.BuildAttention(workloads.AttentionConfig{
					Model:       m,
					KVLens:      trace.SampleKVLengths(b, kvMean, trace.VarMed, s.Seed+uint64(b)),
					Strategy:    strat,
					Regions:     regions,
					KVChunk:     kvChunk,
					CoarseBlock: sp.CoarseBlock,
				})
				if err != nil {
					return nil, err
				}
				return []*graph.Program{a.Program}, nil
			},
			opts:   []graph.RunOption{graph.WithConfig(cfg), graph.WithSeed(s.Seed)},
			cycles: single,
		}, nil

	case scenario.KindDecoder:
		if len(sp.Batches) > 0 || sp.SampleLayers != 0 {
			return pointBuild{}, fmt.Errorf("spec %s: point rebuild expects one batch and default sample layers", sp.ID)
		}
		const sampleLayers = 2 // the decoder kind's full-resolution default
		nS := len(sp.Strategies)
		m := models[idx/nS]
		moeTile, dynamic, attn, err := decoderSchedule(sp.Strategies[idx%nS])
		if err != nil {
			return pointBuild{}, err
		}
		skew := trace.SkewHeavy
		if sp.Skew != "" && sp.Skew != "heavy" {
			return pointBuild{}, fmt.Errorf("spec %s: point rebuild expects heavy skew", sp.ID)
		}
		return pointBuild{
			build: func() ([]*graph.Program, error) {
				kv := trace.SampleKVLengths(sp.Batch, kvMean, trace.VarMed, s.Seed)
				var progs []*graph.Program
				for layer := 0; layer < sampleLayers; layer++ {
					a, err := workloads.BuildAttention(workloads.AttentionConfig{
						Model: m, KVLens: kv, Strategy: attn, Regions: regions, KVChunk: kvChunk, IncludeQKV: true,
					})
					if err != nil {
						return nil, err
					}
					routing, err := trace.SampleExpertRouting(sp.Batch, m.NumExperts, m.TopK, skew, s.Seed+uint64(layer)*977)
					if err != nil {
						return nil, err
					}
					l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
						Model: m, Batch: sp.Batch, TileSize: moeTile, Dynamic: dynamic,
						Routing: routing, Seed: s.Seed + uint64(layer),
					})
					if err != nil {
						return nil, err
					}
					progs = append(progs, a.Program, l.Program)
				}
				return progs, nil
			},
			opts: []graph.RunOption{graph.WithConfig(cfg)},
			cycles: func(res []graph.Result) uint64 {
				var sum uint64
				for _, r := range res {
					sum += uint64(r.Cycles)
				}
				return sum / sampleLayers * uint64(m.Layers)
			},
		}, nil
	}
	return pointBuild{}, fmt.Errorf("spec %s: kind %q has no point rebuild", sp.ID, sp.Kind)
}

func attnStrategy(name string) (workloads.ParallelStrategy, error) {
	switch name {
	case "static-coarse":
		return workloads.StaticCoarse, nil
	case "static-interleaved":
		return workloads.StaticInterleaved, nil
	case "dynamic":
		return workloads.DynamicParallel, nil
	}
	return 0, fmt.Errorf("unknown attention strategy %q", name)
}

// decoderSchedule reads a decoder schedule: "dynamic" or "static:<tile>".
func decoderSchedule(name string) (tile int, dynamic bool, attn workloads.ParallelStrategy, err error) {
	if name == "dynamic" {
		return 0, true, workloads.DynamicParallel, nil
	}
	rest, ok := strings.CutPrefix(name, "static:")
	if !ok {
		return 0, false, 0, fmt.Errorf("unknown decoder schedule %q", name)
	}
	tile, err = strconv.Atoi(rest)
	if err != nil || tile < 1 {
		return 0, false, 0, fmt.Errorf("bad decoder schedule %q", name)
	}
	return tile, false, workloads.StaticInterleaved, nil
}
