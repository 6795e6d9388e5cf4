package des

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSeqCoroutinesDoNotLeak pins the sequential engine's teardown
// invariant: when Run returns, however the run ended, no coroutine is
// left parked inside a process. Such a coroutine would keep its goroutine
// (and everything its stack references) alive forever. Idle coroutines
// do outlive a run, in coroPool, so the baseline is taken after a warm-up
// run: repeated runs of the same shape reuse those and must not add any.
func TestSeqCoroutinesDoNotLeak(t *testing.T) {
	cases := []struct {
		name  string
		build func(sim *Simulation)
		want  string // substring of Run's error; "" for success
	}{
		{"normal finish", func(sim *Simulation) {
			ch := NewChan[int](sim, "c", 2, 1)
			ch.BindSender(sim.Spawn("prod", func(p *Process) error {
				for i := 0; i < 10; i++ {
					ch.Send(p, i)
					p.Advance(1)
				}
				ch.Close(p)
				return nil
			}))
			ch.BindRecver(sim.Spawn("cons", func(p *Process) error {
				for {
					if _, ok := ch.Recv(p); !ok {
						return nil
					}
				}
			}))
		}, ""},
		{"error while others parked", func(sim *Simulation) {
			in := NewChan[int](sim, "in", 1, 0)
			full := NewChan[int](sim, "full", 1, 0)
			in.BindRecver(sim.Spawn("recv-parked", func(p *Process) error {
				_, _ = in.Recv(p)
				return nil
			}))
			full.BindSender(sim.Spawn("send-parked", func(p *Process) error {
				full.Send(p, 1)
				full.Send(p, 2)
				return nil
			}))
			a := NewChan[int](sim, "a", 1, 1)
			b := NewChan[int](sim, "b", 1, 1)
			a.BindSender(sim.Spawn("a-src", func(p *Process) error {
				p.Advance(100) // still sleeping when "failing" errors
				a.Send(p, 1)
				return nil
			}))
			sel := sim.Spawn("select-parked", func(p *Process) error {
				Select(p, a, b)
				return nil
			})
			a.BindRecver(sel)
			b.BindRecver(sel)
			sim.Spawn("failing", func(p *Process) error {
				p.Advance(3)
				return errTest
			})
		}, "failing"},
		{"panic", func(sim *Simulation) {
			ch := NewChan[int](sim, "c", 1, 0)
			ch.BindRecver(sim.Spawn("parked", func(p *Process) error {
				_, _ = ch.Recv(p)
				return nil
			}))
			sim.Spawn("panicking", func(p *Process) error {
				p.Advance(2)
				panic("boom")
			})
		}, "panicked"},
		{"deadlock", func(sim *Simulation) {
			ab := NewChan[int](sim, "ab", 1, 1)
			ba := NewChan[int](sim, "ba", 1, 1)
			a := sim.Spawn("a", func(p *Process) error {
				_, _ = ba.Recv(p)
				return nil
			})
			b := sim.Spawn("b", func(p *Process) error {
				_, _ = ab.Recv(p)
				return nil
			})
			ab.BindSender(a).BindRecver(b)
			ba.BindSender(b).BindRecver(a)
		}, "deadlock"},
		{"never started", func(sim *Simulation) {
			sim.Spawn("failing-first", func(p *Process) error { return errTest })
			for i := 0; i < 4; i++ {
				sim.Spawn("never-started", func(p *Process) error {
					t.Error("process ran after an earlier process failed")
					return nil
				})
			}
		}, "failing-first"},
		{"parks again while unwinding", func(sim *Simulation) {
			ch := NewChan[int](sim, "c", 1, 0)
			ch.BindRecver(sim.Spawn("stubborn", func(p *Process) error {
				defer func() {
					_ = recover()
					_, _ = ch.Recv(p) // blocks again during the abort sweep
				}()
				_, _ = ch.Recv(p)
				return nil
			}))
			sim.Spawn("failing", func(p *Process) error {
				p.Advance(1)
				return errTest
			})
		}, "failing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(i int) {
				sim := New()
				tc.build(sim)
				_, err := sim.Run()
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("run %d: %v", i, err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("run %d: err = %v, want it to mention %q", i, err, tc.want)
				}
			}
			run(0)
			base := runtime.NumGoroutine()
			for i := 1; i <= 20; i++ {
				run(i)
			}
			// Coroutines unwind synchronously inside Run; the grace period
			// only absorbs unrelated goroutines of the test binary.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after 20 more runs, %d after the first: process coroutines leaked", n, base)
			}
		})
	}
}

// TestSeqCoroutinePoolConcurrentRuns runs simulations of different shapes
// and outcomes on several goroutines at once, so pooled coroutines pass
// between runs and goroutines: every run must still give the result it
// gives alone. Run it with -race to check the hand-over.
func TestSeqCoroutinePoolConcurrentRuns(t *testing.T) {
	run := func(stages, n int, fail bool) (Time, error) {
		sim := New()
		chans := make([]*Chan[int], stages)
		for i := range chans {
			chans[i] = NewChan[int](sim, "c", 2, 1)
		}
		chans[0].BindSender(sim.Spawn("src", func(p *Process) error {
			for i := 0; i < n; i++ {
				chans[0].Send(p, i)
				p.Advance(1)
			}
			chans[0].Close(p)
			return nil
		}))
		for s := 1; s < stages; s++ {
			in, out := chans[s-1], chans[s]
			proc := sim.Spawn("stage", func(p *Process) error {
				for {
					v, ok := in.Recv(p)
					if !ok {
						out.Close(p)
						return nil
					}
					if fail && v == n/2 {
						return errTest
					}
					p.Advance(Time(v%3 + 1))
					out.Send(p, v)
				}
			})
			in.BindRecver(proc)
			out.BindSender(proc)
		}
		last := chans[stages-1]
		last.BindRecver(sim.Spawn("sink", func(p *Process) error {
			for {
				if _, ok := last.Recv(p); !ok {
					return nil
				}
			}
		}))
		return sim.Run()
	}
	type shape struct {
		stages, n int
		fail      bool
	}
	shapes := []shape{{2, 50, false}, {8, 40, false}, {5, 30, true}, {16, 20, false}, {3, 60, true}}
	type outcome struct {
		at  Time
		err string
	}
	want := make([]outcome, len(shapes))
	for i, sh := range shapes {
		at, err := run(sh.stages, sh.n, sh.fail)
		want[i] = outcome{at: at, err: fmt.Sprint(err)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				i := (g + k) % len(shapes)
				sh := shapes[i]
				at, err := run(sh.stages, sh.n, sh.fail)
				if got := (outcome{at: at, err: fmt.Sprint(err)}); got != want[i] {
					t.Errorf("goroutine %d run %d, shape %+v: got %+v, want %+v", g, k, sh, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
