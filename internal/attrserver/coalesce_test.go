package attrserver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairco2/internal/metrics"
)

func TestFlightGroupSharesOneExecution(t *testing.T) {
	var calls atomic.Int64
	inst := NewInstruments(metrics.NewRegistry())
	g := &flightGroup{dups: inst.Coalesced}

	const n = 16
	release := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		<-release
		return "shared", nil
	}

	var wg sync.WaitGroup
	results := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), testKey("k"), fn)
		}(i)
	}
	// Every non-leader registers as a dup before blocking, so this poll
	// converges exactly when all n callers have attached.
	deadline := time.Now().Add(5 * time.Second)
	for inst.Coalesced.Value() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dups = %v after 5s, want %d", inst.Coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i].(string) != "shared" {
			t.Errorf("caller %d got (%v, %v), want (shared, nil)", i, results[i], errs[i])
		}
	}
}

func TestFlightGroupKeysAreIndependent(t *testing.T) {
	var calls atomic.Int64
	g := &flightGroup{}
	fn := func() (any, error) { return calls.Add(1), nil }
	if _, err := g.Do(context.Background(), testKey("a"), fn); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Do(context.Background(), testKey("b"), fn); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("distinct keys shared an execution: %d calls, want 2", got)
	}
}

func TestFlightGroupSequentialCallsRecompute(t *testing.T) {
	var calls atomic.Int64
	g := &flightGroup{}
	fn := func() (any, error) { return calls.Add(1), nil }
	v1, _ := g.Do(context.Background(), testKey("k"), fn)
	v2, _ := g.Do(context.Background(), testKey("k"), fn)
	if v1.(int64) != 1 || v2.(int64) != 2 {
		t.Errorf("sequential calls got %v, %v; want 1, 2 (no stale sharing)", v1, v2)
	}
}

func TestFlightGroupPropagatesErrors(t *testing.T) {
	g := &flightGroup{}
	boom := errors.New("boom")
	if _, err := g.Do(context.Background(), testKey("k"), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestFlightGroupWaiterHonorsContext(t *testing.T) {
	g := &flightGroup{}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = g.Do(context.Background(), testKey("k"), func() (any, error) {
			<-release
			return "late", nil
		})
	}()
	<-started
	// Wait for the leader's flight to be registered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, inflight := g.calls[testKey("k")]
		g.mu.Unlock()
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, testKey("k"), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
}
