//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"iter"
	"slices"
	"sync"
)

// procState tracks where a process is in its lifecycle (sequential engine).
type procState int

const (
	stateReady procState = iota // spawned, not yet run
	stateRunning
	stateWaiting // yielded: sleeping on an event or parked on channels
	stateFinished
)

// seqProc is the sequential-engine per-process state.
type seqProc struct {
	state   procState
	episode uint64 // wait-episode counter; stale wake events are dropped
	aborted bool
	serSeq  uint64
	// co is the coroutine the process runs on, from its first dispatch
	// to the end of the run.
	co *seqCoro
	// blockedVerb/blockedCh describe what the process is waiting for.
	// Kept as a static verb plus an optional channel so blocking never
	// allocates; the human-readable description is materialized only for
	// deadlock reports.
	blockedVerb string
	blockedCh   *chanCore
	// blockedSels is the channel set of a blocked Select (diagnostics
	// only; a slice-header assignment, so recording it never allocates).
	blockedSels []*chanCore
}

// event is a scheduled wake-up of a process.
type event struct {
	at      Time
	seq     uint64
	proc    *Process
	episode uint64
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a manual binary min-heap of events. container/heap would
// box every event into an interface on Push and Pop — two allocations per
// simulated wake — which profiling showed to be the simulator's single
// largest allocation source. The manual heap keeps events as values.
type eventHeap []event

func (h *eventHeap) pushEvent(ev event) {
	hs := append(*h, ev)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *eventHeap) popEvent() event {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = event{} // drop the proc reference
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && eventLess(hs[r], hs[small]) {
			small = r
		}
		if small == i {
			break
		}
		hs[i], hs[small] = hs[small], hs[i]
		i = small
	}
	return top
}

// serReq is a pending Serialized critical section.
type serReq struct {
	t   Time
	pid int
	seq uint64
	p   *Process
}

func serLess(a, b serReq) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	return a.seq < b.seq
}

// serHeap is a manual binary min-heap of Serialized requests (value-typed
// for the same no-boxing reason as eventHeap). Shared by both engines.
type serHeap []serReq

func (h *serHeap) pushReq(r serReq) {
	hs := append(*h, r)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !serLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *serHeap) popReq() serReq {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = serReq{}
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && serLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && serLess(hs[r], hs[small]) {
			small = r
		}
		if small == i {
			break
		}
		hs[i], hs[small] = hs[small], hs[i]
		i = small
	}
	return top
}

// seqEngine runs exactly one process at a time, dispatching wake events in
// (time, sequence) order so simulations are bit-for-bit reproducible
// regardless of goroutine scheduling.
//
// Processes run as iter.Pull coroutines under one hub loop (run): the hub
// picks the next event or Serialized request and resumes that process's
// coroutine, and a blocking primitive records its wait state and yields
// straight back to the hub. A coroutine switch is a direct stack switch
// (runtime.coroswitch), not a channel wake-up through the Go scheduler.
// Exactly one of the hub and the coroutines runs at any moment, so engine
// state needs no locks.
type seqEngine struct {
	sim      *Simulation
	nowT     Time
	events   eventHeap
	seq      uint64
	pending  serHeap
	live     int
	finish   Time
	firstErr error
	// spare holds the coroutines taken from coroPool for this run that no
	// process has started on yet.
	spare []*seqCoro
}

func newSeqEngine(s *Simulation) *seqEngine {
	return &seqEngine{sim: s}
}

// seqCoro is a process coroutine. It runs processes one after another:
// when one returns, the coroutine parks idle, in coroPool once the run
// is over, until a later run hands it the next process to start.
type seqCoro struct {
	p     *Process // the process being run; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (c *seqCoro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		runProc(c.p)
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc runs p's body to completion, converting a panic into the
// process error.
func runProc(p *Process) {
	e := p.sim.eng.(*seqEngine)
	p.seq.state = stateRunning
	defer func() {
		recoverAsError(p, recover())
		e.finishProc(p)
	}()
	if p.seq.aborted {
		panic(errAborted)
	}
	p.err = p.fn(p)
}

// coroPool keeps idle coroutines between runs, so a run starts its
// processes on earlier runs' coroutines instead of paying iter.Pull's
// setup (a goroutine and about 11 allocations) per process. An idle
// coroutine is a parked goroutine whose stack the garbage collector
// shrinks; maxIdleCoros bounds how many are kept (a full-resolution fig10
// sweep on two harness workers parks about 7,000), and a coroutine
// returned beyond it is stopped. A run takes and returns its coroutines
// in one batch each, so concurrent runs do not contend per process.
var coroPool struct {
	sync.Mutex
	idle []*seqCoro
}

const maxIdleCoros = 8192

// takeCoros moves up to n idle coroutines from the top of coroPool to the
// caller; resume uses them from the end of the returned slice.
func takeCoros(n int) []*seqCoro {
	coroPool.Lock()
	defer coroPool.Unlock()
	k := max(len(coroPool.idle)-n, 0)
	cs := slices.Clone(coroPool.idle[k:])
	clear(coroPool.idle[k:])
	coroPool.idle = coroPool.idle[:k]
	return cs
}

// returnCoros gives a finished run's idle coroutines back to coroPool:
// the unused spares, then those its processes ran on in reverse spawn
// order, so that the next run of the same program starts each process on
// the coroutine it ran on before (their stacks and bookkeeping then sit
// in memory in the order the run touches them). A coroutine still inside
// a process (only when the hub itself panicked) is never pooled.
// Coroutines beyond maxIdleCoros are stopped.
func returnCoros(spare []*seqCoro, procs []*Process) {
	var excess []*seqCoro
	coroPool.Lock()
	add := func(c *seqCoro) {
		if len(coroPool.idle) < maxIdleCoros {
			coroPool.idle = append(coroPool.idle, c)
		} else {
			excess = append(excess, c)
		}
	}
	for _, c := range spare {
		add(c)
	}
	for i := len(procs) - 1; i >= 0; i-- {
		if c := procs[i].seq.co; c != nil && c.p == nil {
			add(c)
		}
		procs[i].seq.co = nil
	}
	coroPool.Unlock()
	for _, c := range excess {
		c.stop()
	}
}

func (e *seqEngine) now(p *Process) Time { return e.nowT }

func (e *seqEngine) schedule(at Time, p *Process, episode uint64) {
	e.seq++
	e.events.pushEvent(event{at: at, seq: e.seq, proc: p, episode: episode})
}

// yield parks the running process: it records the wait state and
// suspends the coroutine back to the hub, which resumes it when its wake
// event or Serialized turn is dispatched. A false return from the
// coroutine yield means the hub is stopping the coroutine.
func (e *seqEngine) yield(p *Process, verb string, ch *chanCore) {
	sp := &p.seq
	sp.episode++
	sp.state = stateWaiting
	sp.blockedVerb, sp.blockedCh = verb, ch
	resumed := sp.co.yield(struct{}{})
	sp.state = stateRunning
	sp.blockedVerb, sp.blockedCh = "", nil
	if !resumed || sp.aborted {
		panic(errAborted)
	}
}

// pick pops the next runnable process — the earliest valid wake event,
// or the first pending Serialized request when it is due no later — and
// moves the clock to its time. It returns nil when nothing can ever
// progress again (deadlock).
func (e *seqEngine) pick() *Process {
	haveEv := e.hasValidEventAtOrBefore(timeInf)
	switch {
	case haveEv && (len(e.pending) == 0 || e.events[0].at <= e.pending[0].t):
		ev := e.events.popEvent()
		if ev.at > e.nowT {
			e.nowT = ev.at
		}
		return ev.proc
	case len(e.pending) > 0:
		r := e.pending.popReq()
		if r.t > e.nowT {
			e.nowT = r.t
		}
		return r.p
	}
	return nil
}

func (e *seqEngine) advance(p *Process, d Time) {
	nt := e.nowT + d
	// Fast path: when no other wake or critical section is due at or
	// before the target time, the dispatcher would pick this process's own
	// wake event next anyway — advance the clock inline and skip the
	// schedule/yield round-trip entirely. Common whenever the rest of the
	// pipeline is parked on channels (backpressured or starved), which is
	// exactly when a lone active stage ticks through its elements.
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(nt) {
		e.nowT = nt
		return
	}
	e.schedule(nt, p, p.seq.episode+1)
	e.yield(p, "advance", nil)
}

func (e *seqEngine) advanceTo(p *Process, t Time) {
	if t <= e.nowT {
		return
	}
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(t) {
		e.nowT = t
		return
	}
	e.schedule(t, p, p.seq.episode+1)
	e.yield(p, "advance-to", nil)
}

func (e *seqEngine) serialized(p *Process, fn func()) {
	if p.seq.aborted {
		panic(errAborted)
	}
	// Fast path: with no queued request and no other wake at or before the
	// current time, this request is first in (time, pid, seq) order — no
	// other process can act before it, so run inline. This mirrors the
	// parallel engine's "all other local clocks have passed t" condition.
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(e.nowT) {
		fn()
		return
	}
	e.pending.pushReq(serReq{t: e.nowT, pid: p.id, seq: p.seq.serSeq, p: p})
	p.seq.serSeq++
	e.yield(p, "serialized", nil)
	fn()
}

// hasValidEventAtOrBefore prunes stale heap tops and reports whether a
// dispatchable event exists at or before t. Safe to call from the hub or
// the running process (only one of them runs at a time).
func (e *seqEngine) hasValidEventAtOrBefore(t Time) bool {
	for len(e.events) > 0 {
		top := e.events[0]
		if !e.eventValid(top) {
			e.events.popEvent()
			continue
		}
		return top.at <= t
	}
	return false
}

func (e *seqEngine) eventValid(ev event) bool {
	sp := &ev.proc.seq
	if sp.state == stateFinished || sp.state == stateRunning {
		return false
	}
	// Episode 0 events are the initial dispatch; otherwise the episode
	// must match the process's current wait episode.
	return ev.episode == 0 || ev.episode == sp.episode
}

// eventSlabPool recycles event-heap backing arrays across simulations: a
// session creates one Simulation per run and the heap regrows to roughly
// the same size every time, so the array is the textbook pooling case.
// Entries are zeroed before Put (they hold process pointers).
var eventSlabPool = sync.Pool{
	New: func() any {
		s := make(eventHeap, 0, 256)
		return &s
	},
}

func (e *seqEngine) run() (Time, error) {
	e.events = *eventSlabPool.Get().(*eventHeap)
	defer func() {
		clear(e.events[:cap(e.events)])
		slab := e.events[:0]
		eventSlabPool.Put(&slab)
		e.events = nil
	}()
	e.spare = takeCoros(len(e.sim.procs))
	defer func() {
		returnCoros(e.spare, e.sim.procs)
		e.spare = nil
	}()
	// Seed: every process starts at time 0 in spawn order.
	for _, p := range e.sim.procs {
		e.schedule(0, p, 0)
	}
	e.live = len(e.sim.procs)
	for e.live > 0 && e.firstErr == nil {
		p := e.pick()
		if p == nil {
			e.firstErr = e.deadlockError()
			break
		}
		e.resume(p)
	}
	// Abort any started processes still alive (error or deadlock path):
	// resume each once with the abort flag set so it unwinds through
	// errAborted, and stop the coroutine of one that parked again while
	// unwinding. A process that never started has nothing to unwind.
	for _, p := range e.sim.procs {
		if c := p.seq.co; c != nil && p.seq.state != stateFinished {
			p.seq.aborted = true
			c.next()
			if p.seq.state != stateFinished {
				c.stop()
				p.seq.co = nil
			}
		}
	}
	if e.finish < e.nowT {
		e.finish = e.nowT
	}
	return e.finish, e.firstErr
}

// resume runs p until it blocks or returns, starting it on a spare
// coroutine (or a new one) at its first dispatch. The process keeps the
// coroutine until the run ends, so returnCoros can order the pool.
func (e *seqEngine) resume(p *Process) {
	c := p.seq.co
	if c == nil {
		if n := len(e.spare); n > 0 {
			c = e.spare[n-1]
			e.spare = e.spare[:n-1]
		} else {
			c = new(seqCoro)
			c.next, c.stop = iter.Pull(c.body)
		}
		c.p, p.seq.co = p, c
	}
	c.next()
}

// finishProc retires a process and records the first process error.
func (e *seqEngine) finishProc(p *Process) {
	p.seq.state = stateFinished
	e.live--
	if e.nowT > e.finish {
		e.finish = e.nowT
	}
	if p.err != nil && e.firstErr == nil {
		e.firstErr = procError(p)
	}
}

func (e *seqEngine) deadlockError() error {
	var refs []blockedRef
	for _, p := range e.sim.procs {
		if p.seq.state == stateFinished {
			continue
		}
		refs = append(refs, blockedRef{
			name: p.Name(),
			verb: p.seq.blockedVerb,
			on:   seqBlockedOn(&p.seq),
		})
	}
	return deadlockError(e.nowT, refs)
}

// seqBlockedOn names the resource a blocked process waits on, for
// grouping deadlock reports. Materialized only once deadlock is certain.
func seqBlockedOn(sp *seqProc) string {
	if sp.blockedCh != nil {
		//lint:allow hotpath deadlock-report formatting; runs once after the engine has already stopped
		return "chan " + sp.blockedCh.label()
	}
	if len(sp.blockedSels) > 0 {
		return selectLabel(sp.blockedSels)
	}
	return ""
}

func (e *seqEngine) schedStats() SchedStats { return SchedStats{} }

// --- channel protocol -------------------------------------------------

func (e *seqEngine) sendReserve(c *chanCore, p *Process) int {
	if c.closed {
		panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
	}
	for c.count >= c.cap {
		if c.seqSendWaiter != nil && c.seqSendWaiter != p {
			panic(fmt.Sprintf("des: channel %q has two senders", c.label()))
		}
		c.seqSendWaiter = p
		e.yield(p, "send", c)
		c.seqSendWaiter = nil
		if c.closed {
			panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
		}
	}
	return c.tail()
}

func (e *seqEngine) sendPublish(c *chanCore, p *Process) {
	ready := e.nowT + c.latency
	c.push(ready)
	if w := c.seqRecvWaiter; w != nil {
		e.schedule(ready, w, w.seq.episode)
	}
}

func (e *seqEngine) recvWait(c *chanCore, p *Process) (int, bool) {
	for {
		if c.count > 0 {
			if ready := c.ready[c.head]; ready > e.nowT {
				// Sleep until the head becomes visible.
				e.schedule(ready, p, p.seq.episode+1)
				e.yield(p, "recv-latency", c)
				continue
			}
			return c.head, true
		}
		if c.closed {
			return 0, false
		}
		if c.seqRecvWaiter != nil && c.seqRecvWaiter != p {
			panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
		}
		c.seqRecvWaiter = p
		e.yield(p, "recv", c)
		c.seqRecvWaiter = nil
	}
}

func (e *seqEngine) recvRelease(c *chanCore, p *Process) {
	c.pop(e.nowT)
	if w := c.seqSendWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
}

// recvMore releases the previously returned slot and, when the next head
// element is already visible, hands it out in the same step — the bulk
// dequeue primitive behind Chan.RecvUntil. Timing is identical to a
// recvRelease followed by a recvWait that found the element visible.
func (e *seqEngine) recvMore(c *chanCore, p *Process) (int, bool) {
	e.recvRelease(c, p)
	if c.count > 0 && c.ready[c.head] <= e.nowT {
		return c.head, true
	}
	return 0, false
}

func (e *seqEngine) closeChan(c *chanCore, p *Process) {
	if c.closed {
		panic(fmt.Sprintf("des: double close of channel %q", c.label()))
	}
	c.markClosed(e.nowT)
	if w := c.seqRecvWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
	// A sender parked on a full channel must also observe the close (it
	// panics with the canonical "send on closed channel" report instead
	// of surfacing as a deadlocked process).
	if w := c.seqSendWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
}

func (e *seqEngine) setSelWaiter(c *chanCore, p *Process) {
	if c.seqRecvWaiter != nil && c.seqRecvWaiter != p {
		panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
	}
	c.seqRecvWaiter = p
}

func (e *seqEngine) clearSelWaiter(c *chanCore, p *Process) {
	if c.seqRecvWaiter == p {
		c.seqRecvWaiter = nil
	}
}

func (e *seqEngine) sel(p *Process, cores []*chanCore) int {
	for {
		best := -1
		var bestAt Time
		allDrained := true
		for i, c := range cores {
			if !(c.closed && c.count == 0) {
				allDrained = false
			}
			if c.count == 0 {
				continue
			}
			at := c.ready[c.head]
			if best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best >= 0 {
			if bestAt > e.nowT {
				// Wait until the earliest head is visible, but remain
				// wakeable by earlier arrivals on the other channels.
				for _, c := range cores {
					e.setSelWaiter(c, p)
				}
				e.schedule(bestAt, p, p.seq.episode+1)
				p.seq.blockedSels = cores
				e.yield(p, "select-latency", nil)
				p.seq.blockedSels = nil
				for _, c := range cores {
					e.clearSelWaiter(c, p)
				}
				continue
			}
			return best
		}
		if allDrained {
			return -1
		}
		// Nothing queued anywhere: park on all channels.
		for _, c := range cores {
			e.setSelWaiter(c, p)
		}
		p.seq.blockedSels = cores
		e.yield(p, "select", nil)
		p.seq.blockedSels = nil
		for _, c := range cores {
			e.clearSelWaiter(c, p)
		}
	}
}
