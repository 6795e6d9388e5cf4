package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"step/internal/harness"
	"step/internal/scenario"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the base URL of the serving coordinator,
	// e.g. "http://host:8080".
	Coordinator string
	// Name labels this worker in GET /work/workers (optional).
	Name string
	// Workers is how many leased points this worker runs at once: that
	// many lease loops share the one worker ID. 0 means
	// runtime.GOMAXPROCS(0), one point per CPU. SimWorkers picks the DES
	// engine each point runs on. Determinism makes both invisible in the
	// result bytes; they only set this worker's parallelism.
	Workers    int
	SimWorkers int
	// Client overrides the HTTP client (tests). Nil uses a client with
	// no overall timeout — long polls and long points both outlive any
	// fixed budget — relying on ctx for shutdown.
	Client *http.Client
	// Logf, when set, receives progress lines (join, lease, errors).
	Logf func(format string, args ...any)
}

// worker is the client-side state of one joined worker, shared by its
// lease loops.
type worker struct {
	opts   WorkerOptions
	client *http.Client
	base   string

	// joinMu serializes re-joins, so a 404 seen by several loops at
	// once registers one new ID, not one per loop.
	joinMu sync.Mutex
	// mu guards id and leaseTTL, which a re-join replaces.
	mu       sync.Mutex
	id       string
	leaseTTL time.Duration
}

func (w *worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// current returns the worker ID and lease TTL from the latest join.
func (w *worker) current() (string, time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.leaseTTL
}

// RunWorker joins the coordinator at opts.Coordinator and executes
// leased sweep points until ctx is canceled (which returns nil). It
// runs opts.Workers lease loops side by side under the one worker ID,
// each taking one lease at a time. Each lease is one scenario.RunPoint
// call; the raw encoded result — or the point's error — is posted
// back. Transport errors back off and retry; a 404 on lease (this
// worker was expired) re-joins transparently. A failed re-join stops
// every loop and is returned once all of them have exited.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	w := &worker{
		opts:   opts,
		client: opts.Client,
		base:   strings.TrimRight(opts.Coordinator, "/"),
	}
	if w.base == "" {
		return fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	if w.client == nil {
		w.client = &http.Client{}
	}
	if err := w.join(ctx); err != nil {
		return err
	}
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, n)
	for range n {
		go func() { errs <- w.loop(ctx) }()
	}
	var first error
	for range n {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
}

// loop is one lease loop: poll, run, post, until ctx is canceled
// (nil) or a re-join fails (the error).
func (w *worker) loop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		id, _ := w.current()
		ls, status, err := w.poll(ctx, id)
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil:
			w.logf("worker %s: lease poll: %v (retrying)", id, err)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		case status == http.StatusNotFound:
			// Expired from the fleet (a long partition); start over.
			if err := w.rejoin(ctx, id); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			continue
		case status == http.StatusNoContent:
			continue // empty poll window; poll again
		case status != http.StatusOK:
			w.logf("worker %s: lease poll: unexpected status %d (retrying)", id, status)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		}
		w.run(ctx, id, ls)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (w *worker) join(ctx context.Context) error {
	var resp joinResponse
	status, err := w.post(ctx, "/work/join", joinRequest{Name: w.opts.Name}, &resp)
	if err != nil {
		return fmt.Errorf("fabric: join %s: %w", w.base, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("fabric: join %s: status %d", w.base, status)
	}
	ttl := time.Duration(resp.LeaseTTLMS) * time.Millisecond
	w.mu.Lock()
	w.id, w.leaseTTL = resp.WorkerID, ttl
	w.mu.Unlock()
	w.logf("worker %s: joined %s (lease ttl %v)", resp.WorkerID, w.base, ttl)
	return nil
}

// rejoin registers again after the coordinator answered 404 to stale.
// Only the first loop to get here for a given ID joins; the rest find
// the fresh ID already in place and go straight back to polling.
func (w *worker) rejoin(ctx context.Context, stale string) error {
	w.joinMu.Lock()
	defer w.joinMu.Unlock()
	if id, _ := w.current(); id != stale {
		return nil
	}
	w.logf("worker %s: expired by coordinator; re-joining", stale)
	return w.join(ctx)
}

// poll long-polls for one lease. The coordinator bounds the wait to its
// LongPoll; WaitMS 0 asks for that maximum.
func (w *worker) poll(ctx context.Context, id string) (Lease, int, error) {
	var ls Lease
	status, err := w.post(ctx, "/work/lease", leaseRequest{WorkerID: id}, &ls)
	return ls, status, err
}

// run executes one point leased under worker ID id and posts its
// result, heartbeating while the simulation runs.
func (w *worker) run(ctx context.Context, id string, ls Lease) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, ls.ID)

	res := Result{Point: ls.Point}
	pr, err := w.runPoint(ls)
	if err != nil {
		res.Error = err.Error()
		w.logf("worker %s: point %d: %v", id, ls.Point, err)
	} else {
		res.Raw = json.RawMessage(pr)
	}
	stopHB()

	status, err := w.post(ctx, "/work/lease/"+ls.ID+"/result", res, nil)
	switch {
	case err != nil:
		if ctx.Err() == nil {
			w.logf("worker %s: post result for point %d: %v", id, ls.Point, err)
		}
	case status == http.StatusGone:
		// Lease expired while we computed; the point was re-dispatched
		// and this answer is correctly discarded.
		w.logf("worker %s: point %d finished after lease expiry (discarded)", id, ls.Point)
	case status != http.StatusNoContent:
		w.logf("worker %s: post result for point %d: status %d", id, ls.Point, status)
	}
}

// runPoint parses the leased spec and runs its point locally. A point
// is one simulation and never fans out, so its harness pool is 1; the
// worker's parallelism is its lease loops.
func (w *worker) runPoint(ls Lease) ([]byte, error) {
	sp, err := scenario.Parse(ls.Spec)
	if err != nil {
		return nil, err
	}
	s := harness.Suite{
		Seed:       ls.Seed,
		Quick:      ls.Quick,
		Workers:    1,
		SimWorkers: w.opts.SimWorkers,
	}
	pr, err := scenario.RunPoint(sp, s, ls.Point)
	if err != nil {
		return nil, err
	}
	return pr.Raw, nil
}

// heartbeatLoop extends the lease at a third of its TTL until canceled.
func (w *worker) heartbeatLoop(ctx context.Context, leaseID string) {
	_, ttl := w.current()
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	tk := time.NewTicker(ttl / 3)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
		id, _ := w.current()
		status, err := w.post(ctx, "/work/lease/"+leaseID+"/heartbeat", heartbeatRequest{WorkerID: id}, nil)
		if err != nil || status == http.StatusGone {
			return
		}
	}
}

// post sends a JSON body and decodes a JSON answer (when out is
// non-nil and the status is 200). Error bodies are bounded and folded
// into the status for the caller to branch on.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBytes)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s answer: %w", path, err)
		}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, nil
}
