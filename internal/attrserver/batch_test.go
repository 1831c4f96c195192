package attrserver

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairco2/internal/metrics"
)

func newTestBatcher(window time.Duration) (*batcher, *Instruments) {
	inst := NewInstruments(metrics.NewRegistry())
	b := newBatcher(window, inst)
	return &b, inst
}

func TestBatcherMergesWindowedQueries(t *testing.T) {
	b, inst := newTestBatcher(300 * time.Millisecond)
	var calls atomic.Int64
	fn := func() (any, error) { return calls.Add(1), nil }

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := b.Do(context.Background(), testKey("k"), fn)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1 (all queries inside one window)", got)
	}
	for i, v := range results {
		if v.(int64) != 1 {
			t.Errorf("caller %d got %v, want the shared result", i, v)
		}
	}
	if got := inst.Coalesced.Value(); got != n-1 {
		t.Errorf("coalesced = %v, want %d", got, n-1)
	}
}

func TestBatcherZeroWindowComputesImmediately(t *testing.T) {
	b, _ := newTestBatcher(0)
	var calls atomic.Int64
	fn := func() (any, error) { return calls.Add(1), nil }

	// Sequential queries with a zero window each compute: batching is off,
	// and nothing is in flight to attach to.
	if v, _ := b.Do(context.Background(), testKey("k"), fn); v.(int64) != 1 {
		t.Fatalf("first call got %v, want 1", v)
	}
	if v, _ := b.Do(context.Background(), testKey("k"), fn); v.(int64) != 2 {
		t.Fatalf("second call got %v, want 2", v)
	}
}

func TestBatcherSecondGenerationAttachesToInflightComputation(t *testing.T) {
	b, inst := newTestBatcher(10 * time.Millisecond)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		close(started)
		<-release
		return "slow", nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if v, err := b.Do(context.Background(), testKey("k"), fn); err != nil || v.(string) != "slow" {
			t.Errorf("first generation got (%v, %v)", v, err)
		}
	}()
	<-started // the first batch fired and its computation is now blocked

	go func() {
		defer wg.Done()
		// This query opens a second batch (the first already fired); when
		// its window closes it must attach to the in-flight computation
		// instead of starting a second one.
		if v, err := b.Do(context.Background(), testKey("k"), fn); err != nil || v.(string) != "slow" {
			t.Errorf("second generation got (%v, %v)", v, err)
		}
	}()
	// The second batch counts as coalesced at its singleflight join, which
	// happens before the gate releases — poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for inst.Coalesced.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v after 5s, want 1", inst.Coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
}

func TestBatcherKeysBatchIndependently(t *testing.T) {
	b, _ := newTestBatcher(50 * time.Millisecond)
	var calls atomic.Int64
	fn := func() (any, error) { return calls.Add(1), nil }
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, err := b.Do(context.Background(), testKey(key), fn); err != nil {
				t.Error(err)
			}
		}(key)
	}
	wg.Wait()
	if got := calls.Load(); got != 2 {
		t.Errorf("distinct keys executed %d computations, want 2", got)
	}
}

func TestBatcherWaiterHonorsContext(t *testing.T) {
	b, _ := newTestBatcher(time.Hour) // window never fires within the test
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Do(ctx, testKey("k"), func() (any, error) { return nil, nil }); err == nil {
		t.Fatal("cancelled waiter returned nil error")
	}
}
