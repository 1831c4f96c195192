package attrserver

import "fairco2/internal/metrics"

// batchSizeBuckets covers the fan-out a batch window realistically gathers:
// from the solitary query to a thundering herd.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Instruments are the serving-layer metrics for one Server. Every family
// carries a leading `replica` label so several replicas — the cluster
// proxy's normal deployment, and any multi-replica test — can share one
// registry without aliasing each other's counters; the fields here are
// the children (or curried views) already bound to this Server's replica
// value. Families are registered get-or-create, so the second replica on
// a registry reuses the first one's families.
type Instruments struct {
	// Requests counts finished HTTP requests by endpoint and status code
	// (fairco2_attrserver_requests_total{replica,endpoint,code}).
	Requests metrics.CurriedCounterVec
	// CacheHits / CacheMisses count result-cache lookups on the query path.
	CacheHits   *metrics.Counter
	CacheMisses *metrics.Counter
	// CacheEvictions counts entries dropped by the byte-budget LRU or by
	// TTL expiry. A generation a commit supersedes drops its cache
	// whole, uncounted.
	CacheEvictions *metrics.Counter
	// Coalesced counts queries served by a computation they did not
	// trigger: joins of a pending batch plus batches that attached to an
	// already-in-flight computation or found its answer cached on firing.
	Coalesced *metrics.Counter
	// Computations counts underlying attribution computations by method —
	// the denominator that proves coalescing works, and, summed across
	// replicas, that cluster routing never computes one query twice
	// (fairco2_attrserver_computations_total{replica,method}).
	Computations metrics.CurriedCounterVec
	// InvariantViolations counts answers the invariant gate refused, by
	// method; each was served as a 500 and never cached
	// (fairco2_attrserver_invariant_violations_total{replica,method}).
	InvariantViolations metrics.CurriedCounterVec
	// BatchSize observes how many queries each fired batch fanned out to
	// (an in-flight computation may serve several batches).
	BatchSize *metrics.Histogram
	// Inflight gauges HTTP requests currently being served.
	Inflight *metrics.Gauge
}

// NewInstruments registers the serving-layer metrics on reg for the
// default replica "0" — the single-process deployment.
func NewInstruments(reg *metrics.Registry) *Instruments {
	return NewReplicaInstruments(reg, "0")
}

// NewReplicaInstruments registers (or joins) the serving-layer metric
// families on reg and binds their children to the given replica label.
func NewReplicaInstruments(reg *metrics.Registry, replica string) *Instruments {
	return &Instruments{
		Requests: reg.GetOrNewCounterVec(
			"fairco2_attrserver_requests_total",
			"Attribution-service HTTP requests finished, by replica, endpoint and status code.",
			"replica", "endpoint", "code").Curry(replica),
		CacheHits: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_hits_total",
			"Result-cache lookups answered from the cache.",
			"replica").With(replica),
		CacheMisses: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_misses_total",
			"Result-cache lookups that missed (expired or never computed).",
			"replica").With(replica),
		CacheEvictions: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_evictions_total",
			"Result-cache entries evicted by the byte-budget LRU or TTL expiry.",
			"replica").With(replica),
		Coalesced: reg.GetOrNewCounterVec(
			"fairco2_attrserver_coalesced_total",
			"Queries served by a computation they did not trigger (batch joins + in-flight shares).",
			"replica").With(replica),
		Computations: reg.GetOrNewCounterVec(
			"fairco2_attrserver_computations_total",
			"Underlying attribution computations executed, by replica and method.",
			"replica", "method").Curry(replica),
		InvariantViolations: reg.GetOrNewCounterVec(
			"fairco2_attrserver_invariant_violations_total",
			"Answers refused for breaking efficiency, finiteness or non-negativity, by replica and method.",
			"replica", "method").Curry(replica),
		BatchSize: reg.GetOrNewHistogramVec(
			"fairco2_attrserver_batch_size",
			"Queries fanned out together per fired batch.",
			batchSizeBuckets,
			"replica").With(replica),
		Inflight: reg.GetOrNewGaugeVec(
			"fairco2_attrserver_inflight",
			"HTTP requests currently in flight.",
			"replica").With(replica),
	}
}
