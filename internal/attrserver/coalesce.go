package attrserver

import (
	"context"
	"sync"

	"fairco2/internal/metrics"
)

// flightGroup is a stdlib-only singleflight: concurrent Do calls with the
// same key share one execution of fn. The execution runs in its own
// goroutine, so a caller abandoning its wait (context timeout) never
// cancels the computation for the others — the result still lands in the
// cache for the next query. The zero value is ready to use.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flight // nil until the first call
	// dups, when set, counts every caller that attached to an
	// already-in-flight execution instead of starting its own.
	dups *metrics.Counter
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Do executes fn once per key among concurrent callers and returns the
// shared result. Waiting is bounded by ctx; the execution itself is not.
func (g *flightGroup) Do(ctx context.Context, key cacheKey, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if fl, ok := g.calls[key]; ok {
		g.mu.Unlock()
		if g.dups != nil {
			g.dups.Inc()
		}
		return fl.wait(ctx)
	}
	if g.calls == nil {
		g.calls = make(map[cacheKey]*flight)
	}
	fl := &flight{done: make(chan struct{})}
	g.calls[key] = fl
	g.mu.Unlock()

	go func() {
		v, err := fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		fl.val, fl.err = v, err
		close(fl.done)
	}()
	return fl.wait(ctx)
}

func (fl *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-fl.done:
		return fl.val, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
