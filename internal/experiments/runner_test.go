package experiments

import (
	"errors"
	"testing"

	"step/internal/harness"
)

func TestRunAllReportsPerOutcome(t *testing.T) {
	boom := errors.New("boom")
	runners := []Runner{
		{ID: "ok", Desc: "works", Run: func(harness.Suite) (*harness.Table, error) {
			return &harness.Table{ID: "ok"}, nil
		}},
		{ID: "bad", Desc: "fails", Run: func(harness.Suite) (*harness.Table, error) {
			return nil, boom
		}},
		{ID: "ok2", Desc: "still runs after a failure", Run: func(harness.Suite) (*harness.Table, error) {
			return &harness.Table{ID: "ok2"}, nil
		}},
	}
	for _, workers := range []int{1, 4} {
		out := RunAll(harness.Suite{Workers: workers}, runners, nil)
		if len(out) != 3 {
			t.Fatalf("workers=%d: %d outcomes", workers, len(out))
		}
		if out[0].Err != nil || out[0].Table.ID != "ok" {
			t.Fatalf("workers=%d: outcome 0: %+v", workers, out[0])
		}
		if !errors.Is(out[1].Err, boom) || out[1].Table != nil {
			t.Fatalf("workers=%d: outcome 1: %+v", workers, out[1])
		}
		if out[2].Err != nil || out[2].Table.ID != "ok2" {
			t.Fatalf("workers=%d: a failure must not mask later runners: %+v", workers, out[2])
		}
	}
}

// TestRunAllRecoversRunnerPanic: a runner that panics must surface as an
// Outcome error (with the point attributed), not kill the whole
// evaluation process.
func TestRunAllRecoversRunnerPanic(t *testing.T) {
	runners := []Runner{
		{ID: "boomer", Desc: "panics", Run: func(harness.Suite) (*harness.Table, error) { panic("exploded") }},
		{ID: "ok", Desc: "works", Run: func(harness.Suite) (*harness.Table, error) { return &harness.Table{ID: "ok"}, nil }},
	}
	out := RunAll(harness.Suite{Workers: 4}, runners, nil)
	if len(out) != 2 {
		t.Fatalf("%d outcomes", len(out))
	}
	if out[0].Err == nil {
		t.Fatal("panicking runner reported no error")
	}
	if out[1].Err != nil || out[1].Table.ID != "ok" {
		t.Fatalf("panic masked sibling runner: %+v", out[1])
	}
}
