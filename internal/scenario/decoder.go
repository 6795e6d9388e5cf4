package scenario

import (
	"strconv"
	"sync"

	"step/internal/harness"
	"step/internal/trace"
	"step/internal/workloads"
)

// decoderResult is one simulated decoder grid point. Fields are
// exported with JSON tags so the raw result can ship between fabric
// workers and the coordinator (see RunPoint).
type decoderResult struct {
	Cycles  uint64 `json:"cycles"`
	Onchip  int64  `json:"onchip"`
	Traffic int64  `json:"traffic"`
	AllocBW int64  `json:"alloc_bw"`
}

// runDecoder compiles a decoder spec: models x batch sizes x schedules
// through workloads.RunDecoder's two halves, reporting end-to-end latency, on-chip
// footprint, off-chip traffic, and allocated compute. One point is one
// table row, rendered and streamed as it lands. Each distinct attention
// stage is simulated once per sweep and shared by the points that need
// it; a single-point run (RunPoint) simulates only its own.
func runDecoder(sp Spec, s harness.Suite, ss *streamSink, ex exec) (*harness.Table, error) {
	s = s.EnsurePool()
	models, err := sp.resolveModels()
	if err != nil {
		return nil, err
	}
	batches := sp.Batches
	var groupLens []int
	if len(sp.Groups) > 0 {
		for _, g := range sp.Groups {
			for i := 0; i < g.Count; i++ {
				groupLens = append(groupLens, g.KVLen)
			}
		}
		batches = []int{len(groupLens)}
	} else if len(batches) == 0 {
		b := sp.Batch
		if b == 0 {
			b = defaultBatch
		}
		batches = []int{b}
	}
	schedules := sp.Strategies
	if len(schedules) == 0 {
		schedules = []string{defaultStrategy}
	}
	scheds := make([]decoderSchedule, len(schedules))
	for si, name := range schedules {
		if scheds[si], err = parseSchedule(name); err != nil {
			return nil, err
		}
	}
	kvMean := sp.KVMean
	if kvMean == 0 {
		kvMean = defaultKVMean
	}
	variance, err := parseVariance(sp.KVVariance)
	if err != nil {
		return nil, err
	}
	skew, err := parseSkew(sp.Skew)
	if err != nil {
		return nil, err
	}
	sampleLayers := sp.SampleLayers
	if sampleLayers == 0 {
		sampleLayers = 2
		if s.Quick {
			sampleLayers = 1
		}
	}

	nM, nB, nS := len(models), len(batches), len(schedules)
	showModel := nM > 1
	showBatch := nB > 1
	var header []string
	if showModel {
		header = append(header, "Model")
	}
	if showBatch {
		header = append(header, "Batch")
	}
	header = append(header, "Schedule", "CyclesTotal", "OnchipBytes", "TrafficBytes", "AllocComputeFLOPs/cyc")
	t := &harness.Table{ID: sp.ID, Title: sp.Title, Header: header}
	if err := overrideHeader(sp, t); err != nil {
		return nil, err
	}
	ss.start(t, nM*nB*nS)
	run := chainOnPoint(s, func(ev harness.PointEvent) {
		if ev.Err != nil {
			return
		}
		r := ev.Row.(decoderResult)
		idx := ev.Index
		si := idx % nS
		bi := idx / nS % nB
		mi := idx / (nS * nB)
		row := make([]any, 0, len(header))
		if showModel {
			row = append(row, models[mi].Name)
		}
		if showBatch {
			row = append(row, batches[bi])
		}
		row = append(row, schedules[si], r.Cycles, r.Onchip, r.Traffic, r.AllocBW)
		ss.row(idx, harness.FormatRow(row...), map[string]string{
			"model":    models[mi].Name,
			"batch":    strconv.Itoa(batches[bi]),
			"schedule": schedules[si],
		}, ev.Duration)
	})
	config := func(mi, bi, si int) workloads.DecoderConfig {
		b := batches[bi]
		kvLens := groupLens
		if kvLens == nil {
			seed := s.Seed
			if sp.SeedPerBatch {
				seed += uint64(b)
			}
			kvLens = trace.SampleKVLengths(b, kvMean, variance, seed)
		}
		return workloads.DecoderConfig{
			Model:        models[mi],
			Batch:        b,
			KVLens:       kvLens,
			MoETile:      scheds[si].moeTile,
			MoEDynamic:   scheds[si].moeDynamic,
			MoERegions:   sp.MoERegions,
			AttnStrategy: scheds[si].attn,
			AttnRegions:  sp.Regions,
			SampleLayers: sampleLayers,
			Skew:         skew,
			Seed:         s.Seed,
		}
	}
	// The attention stage depends on (model, batch, attention strategy)
	// only. Schedules with the same attention strategy share the stage of
	// the first of them, firstAttn[si]; stages holds it at that
	// schedule's grid index, simulated by the first point that needs it.
	firstAttn := make([]int, nS)
	for si := range scheds {
		for scheds[firstAttn[si]].attn != scheds[si].attn {
			firstAttn[si]++
		}
	}
	runCfg := s.GraphConfig()
	stages := make([]func() (workloads.AttentionStage, error), nM*nB*nS)
	for idx := range stages {
		if si := idx % nS; firstAttn[si] == si {
			mi, bi := idx/(nS*nB), idx/nS%nB
			stages[idx] = sync.OnceValues(func() (workloads.AttentionStage, error) {
				return workloads.SimulateAttentionStage(config(mi, bi, si), runCfg)
			})
		}
	}
	results, err := mapPoints(run, ex, nM*nB*nS, func(idx int) (decoderResult, error) {
		si := idx % nS
		bi := idx / nS % nB
		mi := idx / (nS * nB)
		attn, err := stages[idx-si+firstAttn[si]]()
		if err != nil {
			return decoderResult{}, err
		}
		res, err := workloads.RunDecoderLayers(config(mi, bi, si), attn, runCfg)
		if err != nil {
			return decoderResult{}, err
		}
		return decoderResult{
			Cycles:  uint64(res.CyclesTotal),
			Onchip:  res.OnchipBytes,
			Traffic: res.TrafficBytes,
			AllocBW: res.AllocatedComputeBW,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = ss.take()
	if ex.only >= 0 {
		// Single-point mode: the speedup notes need every schedule's
		// result; the coordinator computes them from the full set.
		return t, nil
	}
	at := func(mi, bi, si int) decoderResult { return results[(mi*nB+bi)*nS+si] }
	for mi, model := range models {
		for bi, b := range batches {
			if nS > 1 {
				first, last := at(mi, bi, 0), at(mi, bi, nS-1)
				t.Notef("%s b=%d: %s vs %s speedup %.2fx, onchip %.2fx",
					model.Name, b, schedules[nS-1], schedules[0],
					float64(first.Cycles)/float64(last.Cycles),
					float64(first.Onchip)/float64(last.Onchip))
			}
		}
	}
	t.Notes = append(t.Notes, sp.Notes...)
	return t, nil
}
