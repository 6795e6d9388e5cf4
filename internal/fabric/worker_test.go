package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// scripted is a hand-driven coordinator for worker-side tests: join
// hands out IDs w1, w2, ... and the test supplies the lease and
// result handlers.
type scripted struct {
	mu     sync.Mutex
	joins  int
	lease  func(w http.ResponseWriter, r *http.Request, workerID string)
	result func(w http.ResponseWriter, r *http.Request)
}

func (s *scripted) joinCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joins
}

func (s *scripted) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /work/join", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.joins++
		id := fmt.Sprintf("w%d", s.joins)
		s.mu.Unlock()
		json.NewEncoder(w).Encode(joinResponse{WorkerID: id, LeaseTTLMS: 60_000})
	})
	mux.HandleFunc("POST /work/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.lease(w, r, req.WorkerID)
	})
	mux.HandleFunc("POST /work/lease/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		s.result(w, r)
	})
	mux.HandleFunc("POST /work/lease/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return httptest.NewServer(mux)
}

// answerLease writes lease n. Its spec does not parse, so the worker
// fails the point at once and posts the error as the result.
func answerLease(w http.ResponseWriter, n int) {
	json.NewEncoder(w).Encode(Lease{ID: fmt.Sprintf("l%d", n), Spec: json.RawMessage(`{}`), Point: n})
}

// park holds a request that gets no lease until the worker hangs up.
func park(r *http.Request) { <-r.Context().Done() }

// startWorker runs RunWorker in the background on its own transport,
// so idle connections can be closed without touching other tests.
func startWorker(ctx context.Context, base string, workers int) (<-chan error, *http.Client) {
	client := &http.Client{Transport: &http.Transport{}}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{Coordinator: base, Workers: workers, Client: client})
	}()
	return done, client
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func stopWorker(t *testing.T, cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWorker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWorker did not exit on cancel")
	}
}

// TestWorkerRunsLeasesConcurrently: with Workers 2 a worker holds two
// leases at once. The first lease answer is held until a second lease
// request is parked, and each result is held until both leases are
// out, so both results arrive only if the two points overlapped.
func TestWorkerRunsLeasesConcurrently(t *testing.T) {
	var (
		mu              sync.Mutex
		parked, handed  int
		second, bothOut = make(chan struct{}), make(chan struct{})
		results         = make(chan struct{}, 2)
	)
	s := &scripted{
		lease: func(w http.ResponseWriter, r *http.Request, _ string) {
			mu.Lock()
			parked++
			n := parked
			if n == 2 {
				close(second)
			}
			mu.Unlock()
			if n > 2 {
				park(r)
				return
			}
			select {
			case <-second:
			case <-r.Context().Done():
				return
			}
			mu.Lock()
			handed++
			if handed == 2 {
				close(bothOut)
			}
			mu.Unlock()
			answerLease(w, n)
		},
		result: func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-bothOut:
			case <-r.Context().Done():
				return
			}
			w.WriteHeader(http.StatusNoContent)
			results <- struct{}{}
		},
	}
	srv := s.serve(t)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, client := startWorker(ctx, srv.URL, 2)
	defer client.CloseIdleConnections()

	waitClosed(t, second, "a second concurrent lease request")
	waitClosed(t, bothOut, "both leases to be handed out")
	for range 2 {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for both results")
		}
	}
	stopWorker(t, cancel, done)
}

// TestWorkerOneLeaseAtATime: with Workers 1 no lease request arrives
// while a lease is out.
func TestWorkerOneLeaseAtATime(t *testing.T) {
	const leases = 3
	var (
		mu                  sync.Mutex
		out, polls, results int
		overlap             bool
		finished            = make(chan struct{})
	)
	s := &scripted{
		lease: func(w http.ResponseWriter, r *http.Request, _ string) {
			mu.Lock()
			polls++
			n := polls
			if out > 0 {
				overlap = true
			}
			if n <= leases {
				out++
			}
			mu.Unlock()
			if n > leases {
				park(r)
				return
			}
			answerLease(w, n)
		},
		result: func(w http.ResponseWriter, r *http.Request) {
			// Give a second loop, if there were one, time to poll
			// while this lease is still out.
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			out--
			results++
			if results == leases {
				close(finished)
			}
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		},
	}
	srv := s.serve(t)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, client := startWorker(ctx, srv.URL, 1)
	defer client.CloseIdleConnections()

	waitClosed(t, finished, "three leases to complete")
	stopWorker(t, cancel, done)
	mu.Lock()
	defer mu.Unlock()
	if overlap {
		t.Fatal("a lease request arrived while a lease was out")
	}
}

// TestWorkerRejoinsOnceAndShutsDown: when the coordinator forgets the
// worker, its three loops re-join with one POST /work/join between
// them and all carry on under the new ID; after cancel RunWorker
// returns and leaves no goroutine behind.
func TestWorkerRejoinsOnceAndShutsDown(t *testing.T) {
	const loops = 3
	baseline := runtime.NumGoroutine()
	var (
		mu       sync.Mutex
		underW2  int
		allMoved = make(chan struct{})
	)
	s := &scripted{
		lease: func(w http.ResponseWriter, r *http.Request, workerID string) {
			if workerID == "w1" {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			if workerID != "w2" {
				t.Errorf("lease poll under unexpected worker ID %q", workerID)
				return
			}
			mu.Lock()
			underW2++
			if underW2 == loops {
				close(allMoved)
			}
			mu.Unlock()
			park(r)
		},
		result: func(w http.ResponseWriter, r *http.Request) {
			t.Error("no lease was handed out, yet a result arrived")
		},
	}
	srv := s.serve(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, client := startWorker(ctx, srv.URL, loops)

	waitClosed(t, allMoved, "every loop to poll under the new worker ID")
	if got := s.joinCount(); got != 2 {
		t.Fatalf("POST /work/join count = %d, want 2 (the first join and one re-join)", got)
	}
	stopWorker(t, cancel, done)
	client.CloseIdleConnections()
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d after shutdown, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
