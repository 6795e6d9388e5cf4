// Package fabric distributes sweep points across pull-based workers.
//
// The coordinator side (Coordinator, mounted on the service's HTTP mux
// via Register) leases work units to workers; the worker side
// (RunWorker, behind `stepctl worker -join`) long-polls for leases,
// runs each point through scenario.RunPoint, and posts the raw encoded
// result back. A work unit is one sweep point: canonical spec JSON +
// point index + seed + quick — a complete, self-contained description
// of one deterministic simulation, so where it runs can never change
// what it produces.
//
// # Protocol
//
//	POST /work/join                         register; returns worker id + TTLs
//	POST /work/lease                        long-poll for a lease (204 = no work)
//	POST /work/lease/{id}/heartbeat         extend a lease's TTL
//	POST /work/lease/{id}/result            post the point's raw result
//	GET  /work/workers                      live workers, for observability
//
// # Invariants
//
// Lease: a point is leased to at most one worker at a time, but a
// worker may hold several leases at once: RunWorker runs
// WorkerOptions.Workers lease loops. Each lease carries its own TTL,
// heartbeated on its own while that point's simulation runs. A lease
// whose TTL lapses (missed heartbeats — worker death, partition)
// is invalidated and its point re-dispatched: to another live worker,
// or — when no live workers remain — back to the coordinator's local
// executors via ErrNoWorkers, so a sweep never hangs on a dead fleet.
//
// At-most-once commit: a result is accepted only while its lease is
// live. Accepting a result consumes the lease; a late answer from a
// worker whose lease already expired and was re-dispatched — or a
// duplicate POST — gets 410 Gone and changes nothing. Each point's
// result therefore commits at most once, no matter how many workers
// raced on it.
//
// Byte-identity: workers ship raw point results (the kind's typed
// result encoded as JSON), never rendered rows. The coordinator
// decodes them into the same render path local execution uses —
// scenario.RunStreamExec — so rows, pivoted Compare columns, Pareto
// notes, and the final table are always rendered coordinator-side from
// complete result sets. Combined with the engine-agnostic determinism
// guarantee (tables are byte-identical at any Workers/SimWorkers
// setting), a sweep spread over any mix of remote workers and local
// fallback renders exactly the bytes a purely local run renders — the
// distributed extension of the stream-equals-batch guarantee.
package fabric
