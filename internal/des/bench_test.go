package des

import "testing"

// Per-layer costs of the sequential engine, in the same units as the
// repository benchmark's des.seq_handoff_ns and des.seq_element_ns
// probes: one process handoff, and one element streamed through a
// producer/consumer pair on the graph layer's default channel shape.

// BenchmarkSeqHandoff bounces a token between two processes through two
// depth-1 channels, so every receive parks its process and every send
// resumes the other one: two dispatches per round.
func BenchmarkSeqHandoff(b *testing.B) {
	const rounds = 10_000
	b.ReportAllocs()
	for b.Loop() {
		sim := New()
		ab := NewChan[int](sim, "ab", 1, 1)
		ba := NewChan[int](sim, "ba", 1, 1)
		pa := sim.Spawn("a", func(p *Process) error {
			for j := 0; j < rounds; j++ {
				ab.Send(p, j)
				if _, ok := ba.Recv(p); !ok {
					panic("ping-pong: channel closed early")
				}
			}
			ab.Close(p)
			return nil
		})
		pb := sim.Spawn("b", func(p *Process) error {
			for {
				v, ok := ab.Recv(p)
				if !ok {
					return nil
				}
				ba.Send(p, v)
			}
		})
		ab.BindSender(pa).BindRecver(pb)
		ba.BindSender(pb).BindRecver(pa)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*rounds*b.N), "ns/dispatch")
}

// BenchmarkSeqElement streams elements from a source that ticks one
// cycle per element to a sink, through a channel of the graph layer's
// default depth (16) and latency (1).
func BenchmarkSeqElement(b *testing.B) {
	const n = 20_000
	b.ReportAllocs()
	for b.Loop() {
		sim := New()
		ch := NewChan[int](sim, "c", 16, 1)
		src := sim.Spawn("src", func(p *Process) error {
			for j := 0; j < n; j++ {
				ch.Send(p, j)
				p.Advance(1)
			}
			ch.Close(p)
			return nil
		})
		count := 0
		sink := sim.Spawn("sink", func(p *Process) error {
			for {
				if _, ok := ch.Recv(p); !ok {
					return nil
				}
				count++
			}
		})
		ch.BindSender(src).BindRecver(sink)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("delivered %d of %d elements", count, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/element")
}
