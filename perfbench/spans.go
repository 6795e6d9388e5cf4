package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The layer is the name
// up to its first dot. Every span of one request carries the same Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced operation runs.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (r *recorder) add(id, parent int64, req, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	sp := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return id
}

// named returns the durations of the spans with the given name whose
// request id starts with reqPrefix.
func (r *recorder) named(name, reqPrefix string) durations {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out durations
	for _, s := range r.spans {
		if s.Name == name && strings.HasPrefix(s.Req, reqPrefix) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
