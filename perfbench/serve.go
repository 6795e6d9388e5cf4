package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"step/internal/fabric"
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/service"
	"step/internal/store"
)

const (
	// lruCap is `stepctl serve`'s default in-memory cache size.
	lruCap = 64
	// keySetFactor sizes the hit key set at twice the LRU, so hits keep a
	// steady mix of memory and disk reads through the whole run.
	keySetFactor = 2
	// Every sampleEvery-th miss and hit of a client is checked against an
	// in-process run after the timed region, up to maxSamples of each.
	sampleEvery = 8
	maxSamples  = 8

	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Parent"
)

// stack is one served system, all in this process: a store in a fresh
// directory, the sweep service on a loopback listener, and (once joined)
// one fabric worker.
type stack struct {
	dir        string
	svc        *service.Service
	srv        *http.Server
	base       string
	served     chan error
	stopWorker context.CancelFunc
	workerDone chan error
}

// startStack opens the store and serves it the way `stepctl serve` does
// by default. With a recorder, a middleware records the server time of
// every traced request.
func startStack(o options, rec *recorder) (*stack, error) {
	dir, err := os.MkdirTemp(tmpRoot(o), "serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, lruCap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc := service.New(st, service.Options{})
	h := svc.Handler()
	if rec != nil {
		h = serverSpans(h, rec)
	}
	s := &stack{
		dir: dir, svc: svc,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// joinWorker starts one fabric worker against the stack and waits until
// the coordinator lists it. ft, when set, times the worker's requests.
func (s *stack) joinWorker(ft *fabricTrace) error {
	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{}
	if ft != nil {
		client.Transport = ft
	}
	s.stopWorker = cancel
	s.workerDone = make(chan error, 1)
	go func() {
		s.workerDone <- fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: s.base, Name: "perfbench", Client: client})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/work/workers")
		if err == nil {
			var ws []fabric.WorkerInfo
			err = json.NewDecoder(resp.Body).Decode(&ws)
			resp.Body.Close()
			if err == nil && len(ws) > 0 {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fabric worker did not join within 10s")
}

// close stops the worker, the service and the server, waits for each,
// and removes the store.
func (s *stack) close() {
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
	}
	s.svc.Close()
	s.srv.Close()
	<-s.served
	os.RemoveAll(s.dir)
}

// serverSpans wraps the service handler: each traced POST /sweeps or
// GET /sweeps/{id}/table becomes a service.post or service.table span.
func serverSpans(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(reqHeader)
		name := "service.post"
		if r.Method == http.MethodGet {
			name = "service.table"
		}
		if req == "" || (r.Method == http.MethodGet && !strings.HasSuffix(r.URL.Path, "/table")) {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(0, parent, req, name, start, time.Now())
	})
}

// jobSpans turns a finished job's status timestamps into its queue wait
// and run spans; run reserves the id the worker's spans hang under.
func (s *stack) jobSpans(rec *recorder, jobID, req string, parent, run int64) {
	if rec == nil {
		return
	}
	j, ok := s.svc.Get(jobID)
	if !ok || j.StartedAt.IsZero() {
		return
	}
	rec.add(0, parent, req, "service.queue_wait", j.CreatedAt, j.StartedAt)
	rec.add(run, parent, req, "service.run", j.StartedAt, j.FinishedAt)
}

// client is one closed-loop load generator.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

func (c *client) request(method, url string, body []byte, req string, parent int64) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if req != "" {
		hr.Header.Set(reqHeader, req)
		hr.Header.Set(parentHeader, strconv.FormatInt(parent, 10))
	}
	return c.hc.Do(hr)
}

// submit POSTs the spec at seed and decodes the job it answers with.
func (c *client) submit(body []byte, seed uint64, wait bool, req string, parent int64) (service.Job, error) {
	url := fmt.Sprintf("%s/sweeps?seed=%d", c.base, seed)
	if wait {
		url += "&wait=2m"
	}
	resp, err := c.request(http.MethodPost, url, body, req, parent)
	if err != nil {
		return service.Job{}, err
	}
	defer resp.Body.Close()
	var j service.Job
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return j, fmt.Errorf("POST /sweeps seed %d: %s: %s", seed, resp.Status, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return j, fmt.Errorf("POST /sweeps seed %d: %w", seed, err)
	}
	return j, nil
}

// table fetches a finished job's rendered table.
func (c *client) table(id, req string, parent int64) (string, error) {
	resp, err := c.request(http.MethodGet, c.base+"/sweeps/"+id+"/table", nil, req, parent)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET table of %s: %s", id, resp.Status)
	}
	return string(b), nil
}

// missRun is one served miss.
type missRun struct {
	job      service.Job
	latency  time.Duration
	firstRow time.Duration
}

// miss submits a never-seen seed and follows the job's stream to its
// terminal event, as `stepctl watch` does.
func (c *client) miss(body []byte, seed uint64, key string, rec *recorder, req string, root int64) (missRun, error) {
	var m missRun
	start := time.Now()
	defer func() { rec.add(root, 0, req, "client.miss", start, time.Now()) }()
	j, err := c.submit(body, seed, false, req, root)
	if err != nil {
		return m, err
	}
	m.job = j
	if j.Key != key {
		return m, fmt.Errorf("seed %d: job key %s, want %s", seed, j.Key, key)
	}
	if j.State.Terminal() {
		return m, fmt.Errorf("seed %d: a never-seen seed answered %s", seed, j.State)
	}
	resp, err := c.request(http.MethodGet, c.base+"/sweeps/"+j.ID+"/stream", nil, "", 0)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return m, fmt.Errorf("stream of %s: %w", j.ID, err)
		}
		switch ev.Type {
		case service.EventRow:
			if m.firstRow == 0 {
				m.firstRow = time.Since(start)
			}
		case service.EventDone:
			m.latency = time.Since(start)
			if ev.State != string(service.StateDone) {
				return m, fmt.Errorf("job %s ended %s: %s", j.ID, ev.State, ev.Error)
			}
			// Reading to the end lets the connection be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return m, nil
		}
	}
	if err := sc.Err(); err != nil {
		return m, fmt.Errorf("stream of %s: %w", j.ID, err)
	}
	return m, fmt.Errorf("stream of %s ended without a terminal event", j.ID)
}

// hit re-submits a stored key and reads its table, which must come from
// the store.
func (c *client) hit(body []byte, seed uint64, rec *recorder, req string) (time.Duration, string, error) {
	root := rec.id()
	start := time.Now()
	defer func() { rec.add(root, 0, req, "client.hit", start, time.Now()) }()
	j, err := c.submit(body, seed, false, req, root)
	if err != nil {
		return 0, "", err
	}
	if j.State != service.StateCached {
		return 0, "", fmt.Errorf("seed %d: a stored key answered %s", seed, j.State)
	}
	t, err := c.table(j.ID, req, root)
	return time.Since(start), t, err
}

// fabricTrace is the fabric worker's HTTP transport in a traced run: it
// times each request to the coordinator, counts leases, heartbeats and
// results, and records spans for leases of traced requests.
type fabricTrace struct {
	rec *recorder

	mu         sync.Mutex
	byKey      map[string]reqRef   // store key -> the traced request computing it
	byLease    map[string]leaseRef // lease id -> its request and arrival
	leases     int
	heartbeats int
	results    int
	accepted   int
	gone       int
	leaseWait  durations
	resultPost durations
}

type reqRef struct {
	req string
	run int64 // the service.run span the worker's spans hang under
}

type leaseRef struct {
	reqRef
	got time.Time
}

func newFabricTrace(rec *recorder) *fabricTrace {
	return &fabricTrace{rec: rec, byKey: map[string]reqRef{}, byLease: map[string]leaseRef{}}
}

// expect ties the leases of key to a traced request.
func (f *fabricTrace) expect(key string, ref reqRef) {
	f.mu.Lock()
	f.byKey[key] = ref
	f.mu.Unlock()
}

// reset zeroes the counters, so they cover only the timed region.
func (f *fabricTrace) reset() {
	f.mu.Lock()
	f.leases, f.heartbeats, f.results, f.accepted, f.gone = 0, 0, 0, 0, 0
	f.leaseWait, f.resultPost = nil, nil
	f.mu.Unlock()
}

func (f *fabricTrace) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	path := r.URL.Path
	switch {
	case path == "/work/lease":
		if resp.StatusCode != http.StatusOK {
			break
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		var ls fabric.Lease
		if err := json.Unmarshal(b, &ls); err != nil {
			break // the worker reports the malformed lease itself
		}
		f.mu.Lock()
		f.leases++
		f.leaseWait = append(f.leaseWait, end.Sub(start))
		ref := f.byKey[ls.Key]
		f.byLease[ls.ID] = leaseRef{ref, end}
		f.mu.Unlock()
		if ref.req != "" {
			f.rec.add(0, ref.run, ref.req, "fabric.lease", start, end)
		}
	case strings.HasSuffix(path, "/heartbeat"):
		id := strings.TrimSuffix(strings.TrimPrefix(path, "/work/lease/"), "/heartbeat")
		f.mu.Lock()
		f.heartbeats++
		if resp.StatusCode == http.StatusGone {
			f.gone++
		}
		ref := f.byLease[id]
		f.mu.Unlock()
		if ref.req != "" {
			f.rec.add(0, ref.run, ref.req, "fabric.heartbeat", start, end)
		}
	case strings.HasSuffix(path, "/result"):
		id := strings.TrimSuffix(strings.TrimPrefix(path, "/work/lease/"), "/result")
		f.mu.Lock()
		f.results++
		switch resp.StatusCode {
		case http.StatusNoContent:
			f.accepted++
		case http.StatusGone:
			f.gone++
		}
		f.resultPost = append(f.resultPost, end.Sub(start))
		ref := f.byLease[id]
		delete(f.byLease, id)
		f.mu.Unlock()
		if ref.req != "" {
			// Between the lease's arrival and its result post the worker
			// runs scenario.RunPoint.
			f.rec.add(0, ref.run, ref.req, "scenario.point", ref.got, start)
			f.rec.add(0, ref.run, ref.req, "fabric.result_post", start, end)
		}
	}
	return resp, nil
}

// shadowLRU replays the store's LRU policy over the keys the clients
// touch, to estimate which hits the store answered from memory. Under
// concurrent clients the order of touches is approximate.
type shadowLRU struct {
	mu    sync.Mutex
	order *list.List
	idx   map[string]*list.Element
}

func newShadowLRU() *shadowLRU {
	return &shadowLRU{order: list.New(), idx: map[string]*list.Element{}}
}

// touch moves key to the front and reports whether it was cached.
func (l *shadowLRU) touch(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.idx[key]; ok {
		l.order.MoveToFront(el)
		return true
	}
	l.idx[key] = l.order.PushFront(key)
	if l.order.Len() > lruCap {
		delete(l.idx, l.order.Remove(l.order.Back()).(string))
	}
	return false
}

// served is one served workload's spec and key set.
type served struct {
	spec scenario.Spec
	body []byte
	keys []uint64 // the hit key set's seeds
	want map[uint64]string
}

func (sv *served) key(seed uint64) (string, error) { return store.Key(sv.spec, seed, false) }

// serveLoad is the shared state of the timed region's clients.
type serveLoad struct {
	mu        sync.Mutex
	misses    durations
	firstRows durations
	hits      durations
	traced    durations // traced misses' latencies
	untraced  durations
	memHits   int
	samples   []sample
}

// sample is a served table to check against an in-process run.
type sample struct {
	what  string
	seed  uint64
	table string
}

func runServeMixed(o options, out *outcome) error {
	sp := scenario.Fig15()
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	seen := map[uint64]bool{}
	keySeeds := newFreshSeeds(o.seed, 2, seen)
	sv := &served{spec: sp, body: body}
	for i := 0; i < keySetFactor*lruCap; i++ {
		sv.keys = append(sv.keys, keySeeds.next())
	}
	missSeeds := newFreshSeeds(o.seed, 3, seen)
	var ft *fabricTrace
	if o.trace {
		ft = newFabricTrace(out.rec)
	}

	var s *stack
	var lru *shadowLRU
	for i := 0; i < o.setups(); i++ {
		if s != nil {
			s.close()
		}
		lru = newShadowLRU()
		start := time.Now()
		if s, err = setUpServe(o, sv, missSeeds, ft, lru, out.rec); err != nil {
			return err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	defer s.close()

	if ft != nil {
		ft.reset()
	}
	var load serveLoad
	var nextMu sync.Mutex
	nextMiss := func() uint64 {
		nextMu.Lock()
		defer nextMu.Unlock()
		return missSeeds.next()
	}
	minOps := 2
	if o.trace {
		minOps = 4 // a traced and an untraced miss and hit each
	}
	points := sp.PointCount(false)
	a0, ticks := totalAlloc(), readCPUTicks()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.base)
			rng := rand.New(rand.NewPCG(o.seed, uint64(c)))
			for i := 0; i < minOps || time.Since(start) < o.window(); i++ {
				var rec *recorder
				if (i/2)%2 == 1 {
					rec = out.rec
				}
				req := fmt.Sprintf("c%d-%d", c, i)
				sampled := (i/2)%sampleEvery == 0
				if (i+c)%2 == 0 {
					err := load.miss(s, sv, cl, nextMiss(), rec, "miss-"+req, ft, lru, sampled)
					load.op(out, err)
				} else {
					err := load.hit(sv, cl, sv.keys[rng.IntN(len(sv.keys))], rec, "hit-"+req, lru, sampled)
					load.op(out, err)
				}
			}
		}(c)
	}
	wg.Wait()
	out.window = time.Since(start)
	out.alloc = totalAlloc() - a0
	out.extra["host_steal_pct"] = stealPct(ticks)
	out.rssMB = peakRSSMB()
	out.sweeps, out.firstRows = load.misses, load.firstRows
	out.points = len(load.misses) * points
	hitTail, hitPct, _ := load.hits.tail()
	out.extra["hits"] = len(load.hits)
	out.extra["hit_p50_ms"] = ms(load.hits.median())
	out.extra["hit_tail_ms"] = ms(hitTail)
	out.extra["hit_tail_percentile"] = hitPct
	memShare := ratio(float64(load.memHits), float64(len(load.hits)))
	out.extra["hit_mem_share"] = memShare
	out.extra["key_set"] = fmt.Sprintf("%d keys = %d x LRU %d", len(sv.keys), keySetFactor, lruCap)

	// Correctness gate: sampled served tables against in-process runs,
	// then the golden tables.
	var gateRuns []sweepRun
	for _, smp := range load.samples {
		r, err := checkServed(sp, smp, out.rec)
		if r.table != "" {
			gateRuns = append(gateRuns, r)
		}
		out.op(err)
	}
	if len(gateRuns) == 0 {
		return fmt.Errorf("no served table was sampled")
	}
	if err := goldenGate(out); err != nil {
		return err
	}

	if !o.trace {
		return nil
	}
	out.layers["trace.overhead_pct"] = overheadPct(load.traced, load.untraced)
	harnessLayers(out, gateRuns)
	serveLayers(out, s, ft, &load)
	first := gateRuns[0]
	in := probeInput{spec: sp, suite: harness.Suite{Workers: nproc()}, seed: first.seed, table: first.table, entries: gateRuns}
	return runProbes(o, in, out)
}

func (l *serveLoad) op(out *outcome, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out.op(err)
}

// miss runs one timed miss and records it.
func (l *serveLoad) miss(s *stack, sv *served, cl *client, seed uint64, rec *recorder, req string, ft *fabricTrace, lru *shadowLRU, sampled bool) error {
	key, err := sv.key(seed)
	if err != nil {
		return err
	}
	root, run := rec.id(), rec.id()
	if rec != nil {
		ft.expect(key, reqRef{req, run})
	}
	m, err := cl.miss(sv.body, seed, key, rec, req, root)
	if err != nil {
		return err
	}
	s.jobSpans(rec, m.job.ID, req, root, run)
	lru.touch(key)
	var table string
	if sampled {
		if table, err = cl.table(m.job.ID, "", 0); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.misses = append(l.misses, m.latency)
	l.firstRows = append(l.firstRows, m.firstRow)
	if rec != nil {
		l.traced = append(l.traced, m.latency)
	} else {
		l.untraced = append(l.untraced, m.latency)
	}
	if sampled && l.count("miss") < maxSamples {
		l.samples = append(l.samples, sample{"miss", seed, table})
	}
	return nil
}

// hit runs one timed hit; its table must equal the one stored for the key.
func (l *serveLoad) hit(sv *served, cl *client, seed uint64, rec *recorder, req string, lru *shadowLRU, sampled bool) error {
	key, err := sv.key(seed)
	if err != nil {
		return err
	}
	inMem := lru.touch(key)
	d, table, err := cl.hit(sv.body, seed, rec, req)
	if err != nil {
		return err
	}
	if err := compareTables(fmt.Sprintf("hit seed %d", seed), sv.want[seed], table); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hits = append(l.hits, d)
	if inMem {
		l.memHits++
	}
	if sampled && l.count("hit") < maxSamples {
		l.samples = append(l.samples, sample{"hit", seed, table})
	}
	return nil
}

func (l *serveLoad) count(what string) int {
	n := 0
	for _, s := range l.samples {
		if s.what == what {
			n++
		}
	}
	return n
}

// setUpServe builds a served system ready for the timed region: store
// and service started, the hit key set stored, the worker joined, and
// one warm-up miss and hit per client done.
func setUpServe(o options, sv *served, missSeeds *freshSeeds, ft *fabricTrace, lru *shadowLRU, rec *recorder) (*stack, error) {
	s, err := startStack(o, rec)
	if err != nil {
		return nil, err
	}
	// The key set is stored before the worker joins, so its sweeps run on
	// the service's own pool.
	want, err := populate(s, sv, lru)
	if err != nil {
		s.close()
		return nil, err
	}
	sv.want = want
	if err := s.joinWorker(ft); err != nil {
		s.close()
		return nil, err
	}
	warm := make([]uint64, nproc())
	for c := range warm {
		warm[c] = missSeeds.next()
	}
	errs := make([]error, nproc())
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.base)
			key, err := sv.key(warm[c])
			if err == nil {
				_, err = cl.miss(sv.body, warm[c], key, nil, "", 0)
				lru.touch(key)
			}
			if err == nil {
				_, _, err = cl.hit(sv.body, sv.keys[c%len(sv.keys)], nil, "")
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// populate stores every key of the key set through the service, nproc
// submissions at a time, and returns each key's served table.
func populate(s *stack, sv *served, lru *shadowLRU) (map[uint64]string, error) {
	want := make(map[uint64]string, len(sv.keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	n := nproc()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.base)
			for i := c; i < len(sv.keys); i += n {
				seed := sv.keys[i]
				j, err := cl.submit(sv.body, seed, true, "", 0)
				if err == nil && j.State != service.StateDone {
					err = fmt.Errorf("key-set seed %d: job %s ended %s: %s", seed, j.ID, j.State, j.Error)
				}
				var t string
				if err == nil {
					t, err = cl.table(j.ID, "", 0)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[seed] = t
				mu.Unlock()
				if err != nil {
					return
				}
				lru.touch(j.Key)
			}
		}(c)
	}
	wg.Wait()
	return want, firstErr
}

// serveLayers records the service and fabric metrics of a traced run.
func serveLayers(out *outcome, s *stack, ft *fabricTrace, load *serveLoad) {
	hits := load.hits
	rec := out.rec
	out.layers["service.queue_wait_ms"] = ms(rec.named("service.queue_wait", "").median())
	out.layers["service.run_ms"] = ms(rec.named("service.run", "").median())
	out.layers["service.post_us"] = us(rec.named("service.post", "hit-").median())
	out.layers["service.table_us"] = us(rec.named("service.table", "hit-").median())
	out.layers["service.hit_rtt_us"] = us(hits.median())
	out.layers["store.mem_hit_share"] = ratio(float64(load.memHits), float64(len(hits)))
	out.layers["service.cache_hit_ratio"] = ratio(float64(len(hits)), float64(len(hits)+len(load.misses)))
	failed := 0
	for _, j := range s.svc.List() {
		if j.State == service.StateFailed {
			failed++
		}
	}
	out.layers["service.failed_jobs"] = float64(failed)
	ft.mu.Lock()
	defer ft.mu.Unlock()
	out.layers["fabric.lease_wait_ms"] = ms(ft.leaseWait.median())
	out.layers["fabric.result_post_ms"] = ms(ft.resultPost.median())
	out.layers["fabric.leases"] = float64(ft.leases)
	out.layers["fabric.accepted_ratio"] = ratio(float64(ft.accepted), float64(ft.results))
	out.layers["fabric.gone_410"] = float64(ft.gone)
	out.layers["fabric.heartbeats"] = float64(ft.heartbeats)
}

// serveProbe serves an in-process workload's own spec once: a miss at
// the probe seed through the fabric worker, whose table must equal the
// in-process one, then repeated hits of the same key. It gives the
// in-process workloads their service, fabric and hit numbers.
func serveProbe(o options, in probeInput, out *outcome) error {
	const hits = 20
	body, err := json.Marshal(in.spec)
	if err != nil {
		return err
	}
	sv := &served{spec: in.spec, body: body, want: map[uint64]string{in.seed: in.table}}
	s, err := startStack(o, out.rec)
	if err != nil {
		return err
	}
	defer s.close()
	ft := newFabricTrace(out.rec)
	if err := s.joinWorker(ft); err != nil {
		return err
	}
	var load serveLoad
	cl := newClient(s.base)
	lru := newShadowLRU()
	out.op(load.miss(s, sv, cl, in.seed, out.rec, "miss-probe", ft, lru, true))
	for _, smp := range load.samples {
		out.op(compareTables("served probe", in.table, smp.table))
	}
	for i := 0; i < hits; i++ {
		out.op(load.hit(sv, cl, in.seed, out.rec, fmt.Sprintf("hit-probe-%d", i), lru, false))
	}
	serveLayers(out, s, ft, &load)
	return nil
}
