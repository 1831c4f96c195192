package attrserver

import (
	"context"
	"sync"
	"time"
)

// batcher merges queries arriving within a small window for the same key
// into one computation and fans the result back out. The first query for a
// key opens a batch and arms the window timer; queries landing before the
// timer fires join the batch (counted as coalesced). When the window
// closes, the batch executes through a singleflight group. A batch leaves
// pending when it fires, so a query that misses while its key is being
// computed opens a second batch. That batch attaches to the computation
// only if it is still running when the window closes; computations are
// usually far shorter than the window, so it runs fn instead, and fn must
// serve a result that landed meanwhile (Server.resolve checks the cache).
// Every schedule generation owns one; its maps are made on the first miss.
type batcher struct {
	window  time.Duration
	flights flightGroup
	inst    *Instruments

	mu      sync.Mutex
	pending map[cacheKey]*pendingBatch // nil until the first miss
}

type pendingBatch struct {
	done chan struct{}
	val  any
	err  error
	size int
}

func newBatcher(window time.Duration, inst *Instruments) batcher {
	return batcher{
		window: window,
		// A batch attaching to an in-flight computation coalesces its
		// opener too — the joiners were already counted on entry.
		flights: flightGroup{dups: inst.Coalesced},
		inst:    inst,
	}
}

// Do resolves key through the batch window + singleflight stack. Waiting
// is bounded by ctx; the computation, once started, is not.
func (b *batcher) Do(ctx context.Context, key cacheKey, fn func() (any, error)) (any, error) {
	b.mu.Lock()
	if p, ok := b.pending[key]; ok {
		p.size++
		b.mu.Unlock()
		b.inst.Coalesced.Inc()
		return p.wait(ctx)
	}
	if b.pending == nil {
		b.pending = make(map[cacheKey]*pendingBatch)
	}
	p := &pendingBatch{done: make(chan struct{}), size: 1}
	b.pending[key] = p
	b.mu.Unlock()

	time.AfterFunc(b.window, func() { b.fire(key, p, fn) })
	return p.wait(ctx)
}

// fire closes the batch and executes it. The batch is removed from pending
// first, so late queries open a fresh batch that the singleflight layer
// will attach to this execution if it is still running.
func (b *batcher) fire(key cacheKey, p *pendingBatch, fn func() (any, error)) {
	b.mu.Lock()
	delete(b.pending, key)
	size := p.size
	b.mu.Unlock()

	b.inst.BatchSize.Observe(float64(size))
	v, err := b.flights.Do(context.Background(), key, fn)
	p.val, p.err = v, err
	close(p.done)
}

func (p *pendingBatch) wait(ctx context.Context) (any, error) {
	select {
	case <-p.done:
		return p.val, p.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
