// Package clusterserve scales the attribution query service horizontally:
// N attrserver replicas, each wrapped in a Node, share one query load by
// consistent hashing without ever computing the same answer twice.
//
// The pieces, bottom up:
//
//   - Ring is an immutable consistent-hash ring (FNV-1a over virtual
//     nodes) mapping computation keys to replica IDs. GET queries hash on
//     their canonical computation key — the schedule's checkpoint config
//     fingerprint plus the method and period the owner's result cache
//     keys by — so every query with the same computation identity lands
//     on one owner; demand deltas hash on (fingerprint, tenant). Adding or
//     removing a replica moves only the keys adjacent to its virtual nodes
//     (~1/n of the space), which the ring property suite pins.
//
//   - Admission control sheds load before it costs a computation: a
//     sharded, memory-bounded table of per-tenant token buckets (millions
//     of distinct tenant keys stay within MaxTenants buckets; only full
//     buckets are evicted, which is lossless), plus a queue-depth bound on
//     locally-computed requests. Both shed with 429 and a Retry-After.
//
//   - Node is the forwarding proxy around one attrserver.Server: it
//     admits, routes, and either serves locally or forwards exactly one
//     hop to the owner (the X-FairCO2-Forwarded header is the loop guard —
//     a forwarded request that lands on a non-owner answers 421, never
//     re-forwards). Owner-side, the existing result cache, batch windows
//     and singleflight compose per shard, so identical queries cost one
//     computation cluster-wide. Committed demand deltas apply at the owner
//     and replicate synchronously to every peer (workload replacements
//     commute, so the replicas' config fingerprints converge). A forward
//     that fails at the network falls back to local computation —
//     availability over deduplication — which is what keeps a replica
//     blackout invisible to clients.
//
// The load-generation harness (StartFleet, RunLoad) spins an in-process
// multi-replica cluster over httptest listeners; the load suite drives it
// with mixed hot/cold zipfian traffic to prove throughput scales with
// replica count, that summed computations equal unique queries, and that
// routed answers are bitwise-identical to a single-process oracle.
package clusterserve
