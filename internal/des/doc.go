// Package des is a deterministic discrete-event simulation kernel modeled
// on the execution style of the Dataflow Abstract Machine (DAM) framework
// the paper's Rust simulator builds on: a program is a set of asynchronous
// processes (dataflow blocks) communicating over bounded, latency-annotated
// FIFO channels with backpressure.
//
// # Engines
//
// Two engines implement the same virtual-time semantics:
//
//   - The sequential engine (New, or NewWithWorkers(n) with n <= 1) runs
//     exactly one process at a time, dispatching wake events and
//     Serialized requests in (time, sequence) order. This is the
//     reference engine. Processes run as iter.Pull coroutines, and one
//     hub loop inside Run resumes them: it picks the next event, resumes
//     that process, and regains control when the process blocks (its
//     blocking primitive records what it waits on and yields) or
//     returns. A scheduling step is two coroutine switches, direct stack
//     switches with no channel operation and no trip through the Go
//     scheduler. Invariants: only the hub or the one resumed coroutine
//     ever runs, so engine state needs no locks; the dispatch order is a
//     pure function of the event heap, never of how the switching is
//     done; and when Run returns no coroutine is left inside a process,
//     because on an error or deadlock the hub resumes each live process
//     once so it unwinds through an abort panic, and stops the coroutine
//     of any process that blocked again while unwinding. A coroutine
//     whose process returned goes idle in a package-wide pool and starts
//     a later process, of this run or another, so a run does not pay a
//     coroutine's setup per process.
//
//   - The parallel engine (NewWithWorkers(n) with n >= 2) is DAM-style
//     conservative parallel simulation: every process owns a *local* clock
//     and runs on its own goroutine; channels bridge time between
//     processes (a receiver adopts max(its clock, head-ready time); a
//     backpressured sender resumes at the virtual time its slot was freed,
//     recorded per dequeue, never at a wall-clock-dependent time). Select
//     and Serialized are the only conservative synchronization points:
//     they wait until the senders' published frontiers (local clock +
//     channel latency) prove that no earlier-visible element or
//     lower-ordered critical section can still arrive.
//
// # Determinism invariants
//
// Both engines produce identical per-process virtual-time traces — and
// therefore identical simulation results — for programs whose Select
// inputs and cross-process interactions go through channels with latency
// >= 1 (the graph executor's default). Every optimization in this
// package preserves that trace exactly; none are heuristics:
//
//   - The sequential engine's inline-advance fast path bumps the clock
//     without a scheduler round trip only when no other event or
//     serialized request could dispatch first, which is the same order
//     the slow path would have produced.
//   - RecvUntil's bulk dequeue takes additional elements only when they
//     are visible at the receiver's current virtual time, i.e. exactly
//     when a per-element Recv loop with no Advance in between would have
//     returned them at the same timestamps.
//   - The parallel engine's grantability cache stores lower bounds on
//     other processes' clocks; clocks are monotone, so a cached pass is
//     always sound and a cached fail falls back to a full rescan.
//
// Three of this package's invariants are additionally enforced
// statically by stepvet (make lint): the determinism analyzer rejects
// wall clocks, unseeded math/rand, and order-leaking map ranges; the
// lockdiscipline analyzer keeps the parallel engine's stateMu critical
// sections free of channel operations, blocking waits, and function-
// value calls; and the hotpath analyzer rejects eager string
// formatting in the //lint:hotpath-marked event-path files (par.go,
// seq.go, chan.go), where names must stay func() string thunks.
//
// # Ownership and lifecycle
//
// Processes are plain Go functions; all Process methods must be called
// from the process's own goroutine (its coroutine, under the sequential
// engine), between the start of its body and its return. Run returns
// only after every started process body has returned (normally, by
// error, or via the abort sweep after a failure), which is what makes
// external storage recycling safe — see below. Because the sequential
// engine reuses coroutines across runs, and the runtime resumes a
// coroutine only under the OS-thread lock state it was created with, Run
// must not be called from a goroutine locked with runtime.LockOSThread.
//
// Channel ring storage is normally engine-allocated (NewChan), but a
// caller may supply its own backing slices via NewChanOn to carve many
// channels' rings from one arena slab. The engine only ever indexes
// those slices; it does not grow, alias, or retain them past Run. The
// caller in turn must not touch or recycle the slabs until Run has
// returned. The engine's own recycling is limited to storage with no
// user-visible identity: pooled event-heap backing arrays (pointer
// slots cleared before returning them to the pool), idle process
// coroutines, and the per-process Select scratch buffer. Elements
// themselves are never recycled by this package — whatever values flow
// through channels are owned by the processes that sent them.
package des
