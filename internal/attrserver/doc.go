// Package attrserver is the online serving layer over the attribution
// engines: a long-lived HTTP service that answers per-tenant attribution,
// share and billing queries against a configured fleet schedule, without
// re-running a batch sweep per question.
//
// The handlers are thin; the substrate does the work:
//
//   - A sharded in-memory result cache (cache.go) per schedule
//     generation, keyed by method and period: a delta commit starts a
//     fresh one, so a result never outlives the configuration it was
//     computed for. Shards carry independent RW locks, LRU lists and
//     byte budgets; entry TTL is tied to the staleness of the live signal
//     the result was priced against (internal/livesignal's degradation
//     ladder), so a result never outlives the signal that justified it.
//   - Request coalescing (coalesce.go): a stdlib-only singleflight group.
//     N concurrent queries for the same (method, period) key of one
//     generation trigger exactly one Shapley computation on the parallel
//     engine; the rest wait for the shared result.
//   - Batched evaluation (batch.go): queries arriving within a small
//     window for the same period are merged into one attribution call —
//     one computation prices every tenant in the window, and the result
//     fans back out to each waiter.
//   - An invariant gate (server.go): every answer, GET or demand delta,
//     must give one finite, non-negative share per workload summing to
//     its budget (axioms.CheckShares) before it is cached or rendered.
//
// Everything is observable: fairco2_attrserver_{requests_total,
// cache_hits_total, cache_misses_total, cache_evictions_total,
// coalesced_total, computations_total, invariant_violations_total,
// batch_size, inflight} via internal/metrics, plus /metrics and /healthz
// endpoints.
package attrserver
