package des

import "testing"

// Allocation-regression guards for the event/element hot path. The PR
// that de-boxed the event heaps and added direct handoff brought the
// sequential engine to (amortized) zero allocations per simulated channel
// element; these tests keep it there. Budgets are per-element with a
// fixed per-run term for setup (simulation, channel, goroutines) and
// include headroom for allocator jitter — a regression that reintroduces
// per-event garbage (interface boxing, diagnostic strings, scratch
// slices) overshoots them by orders of magnitude.

// runPipe simulates a producer/consumer pair moving n elements.
func runPipe(n int) {
	sim := New()
	ch := NewChan[int](sim, "c", 16, 1)
	sim.Spawn("prod", func(p *Process) error {
		for j := 0; j < n; j++ {
			p.Advance(1)
			ch.Send(p, j)
		}
		ch.Close(p)
		return nil
	})
	sim.Spawn("cons", func(p *Process) error {
		for {
			if _, ok := ch.Recv(p); !ok {
				return nil
			}
			p.Advance(1)
		}
	})
	if _, err := sim.Run(); err != nil {
		panic(err)
	}
}

func TestSendRecvAllocBudget(t *testing.T) {
	const n = 5000
	runPipe(n) // warm the pooled heap slabs
	avg := testing.AllocsPerRun(5, func() { runPipe(n) })
	// Setup costs ~20 allocations; the steady state must stay at zero
	// per element (budget allows 0.01/element of jitter).
	if budget := 60.0 + 0.01*n; avg > budget {
		t.Fatalf("producer/consumer of %d elements: %.1f allocs/run, budget %.1f", n, avg, budget)
	}
}

func TestRecvUntilAllocBudget(t *testing.T) {
	const n = 5000
	run := func() {
		sim := New()
		ch := NewChan[int](sim, "c", 16, 1)
		sim.Spawn("prod", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				ch.Send(p, j)
			}
			ch.Close(p)
			return nil
		})
		sim.Spawn("cons", func(p *Process) error {
			got := 0
			ch.RecvUntil(p, func(int) bool { got++; return true })
			if got != n {
				panic("short read")
			}
			return nil
		})
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
	}
	run()
	avg := testing.AllocsPerRun(5, run)
	if budget := 60.0 + 0.01*n; avg > budget {
		t.Fatalf("bulk drain of %d elements: %.1f allocs/run, budget %.1f", n, avg, budget)
	}
}

func TestSelectAllocBudget(t *testing.T) {
	const n = 2000
	run := func() {
		sim := New()
		a := NewChan[int](sim, "a", 8, 1)
		b := NewChan[int](sim, "b", 8, 1)
		pa := sim.Spawn("pa", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				a.Send(p, j)
			}
			a.Close(p)
			return nil
		})
		pb := sim.Spawn("pb", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(2)
				b.Send(p, j)
			}
			b.Close(p)
			return nil
		})
		a.BindSender(pa)
		b.BindSender(pb)
		sim.Spawn("sel", func(p *Process) error {
			for {
				i := Select(p, a, b)
				if i < 0 {
					return nil
				}
				if i == 0 {
					a.Recv(p)
				} else {
					b.Recv(p)
				}
				p.Advance(1)
			}
		})
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
	}
	run()
	avg := testing.AllocsPerRun(5, run)
	// The per-process Select scratch buffer makes the per-iteration cost
	// zero; only setup may allocate.
	if budget := 80.0 + 0.01*2*n; avg > budget {
		t.Fatalf("select loop over %d elements: %.1f allocs/run, budget %.1f", 2*n, avg, budget)
	}
}

// runShortLived simulates n processes that each sleep a few cycles and
// exit, half of them after a one-element channel handoff: the per-run
// cost is dominated by process setup and teardown, not by events.
func runShortLived(n int) {
	sim := New()
	for i := 0; i+1 < n; i += 2 {
		ch := NewChan[int](sim, "c", 1, 1)
		ch.BindSender(sim.Spawn("src", func(p *Process) error {
			p.Advance(Time(p.ID()%13 + 1))
			ch.Send(p, p.ID())
			return nil
		}))
		ch.BindRecver(sim.Spawn("dst", func(p *Process) error {
			_, _ = ch.Recv(p)
			return nil
		}))
	}
	if _, err := sim.Run(); err != nil {
		panic(err)
	}
}

func TestPerProcessAllocBudget(t *testing.T) {
	const n = 1000
	runShortLived(n)
	avg := testing.AllocsPerRun(5, func() { runShortLived(n) })
	// About 4 allocations per process, all the test's own (the Process,
	// its body closure, half a channel): after the warm-up run every
	// process starts on a pooled coroutine. A fresh iter.Pull coroutine
	// per process would add about 11, and the half-allocation margin
	// catches any new per-process allocation in the engine.
	if budget := 50.0 + 4.5*n; avg > budget {
		t.Fatalf("%d short-lived processes: %.1f allocs/run (%.2f per process), budget %.1f", n, avg, avg/n, budget)
	}
}
