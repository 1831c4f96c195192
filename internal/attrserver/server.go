package attrserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/axioms"
	"fairco2/internal/livesignal"
	"fairco2/internal/metrics"
	"fairco2/internal/multiregion"
	"fairco2/internal/schedule"
	"fairco2/internal/stream"
	"fairco2/internal/units"
)

// Config parameterizes the attribution query service. Schedule and Budget
// are required; zero values elsewhere select the defaults below.
type Config struct {
	// Schedule is the fleet schedule queries attribute over.
	Schedule *schedule.Schedule
	// Budget is the embodied budget over the whole schedule window; a
	// queried period prices its time-proportional slice of it (unless a
	// live signal is configured, below).
	Budget units.GramsCO2e
	// Parallelism is forwarded to the Shapley engines (0 auto, 1 serial).
	Parallelism int
	// EnableDelta serves POST /v1/demand/delta: what-if and committed
	// single-tenant demand updates, answered over the full window by the
	// standard method the GET path runs, on a trial copy of the schedule.
	// DefaultConfig turns it on; a zero-value Config leaves it off, so
	// embedding callers opt in explicitly.
	EnableDelta bool

	// CacheBytes bounds the result cache (default 8 MiB).
	CacheBytes int64
	// CacheShards is rounded up to a power of two (default 16).
	CacheShards int
	// CacheTTL is the lifetime of a result priced against a fresh signal,
	// or any result when no signal is configured (default 5m).
	CacheTTL time.Duration
	// DegradedTTL is the lifetime of a result priced while the signal was
	// degraded — short, so recovery is picked up quickly (default 15s).
	DegradedTTL time.Duration
	// BatchWindow is how long the first query for a key waits to gather a
	// batch before computing (default 5ms; 0 computes immediately, with
	// coalescing still folding concurrent identical queries together).
	BatchWindow time.Duration
	// QueryTimeout bounds each query endpoint request (default 30s), and
	// how long a ground-truth what-if waits for the server's one slot.
	QueryTimeout time.Duration
	// PricePerTonne converts attributed grams to the billing endpoint's
	// dollars, in USD per tonne CO2e (default 100).
	PricePerTonne float64

	// Feed, when set, prices queried periods against the live embodied
	// intensity (budget = intensity x the period's resource-seconds) and
	// ties cache TTLs to the signal's staleness ladder. When nil, the
	// static Budget is prorated by period length.
	Feed *livesignal.Feed
	// Stream, when set, exposes the windowed streaming engine's retained
	// per-window results under /v1/stream/; response freshness follows
	// each result's pricing quality on the livesignal ladder.
	Stream *stream.Engine
	// SignalMaxStale mirrors the feed's staleness bound: a result priced
	// against a stale sample never outlives what remains of it (default
	// livesignal.DefaultMaxStale).
	SignalMaxStale time.Duration

	// Scenario, when set, exposes the multi-region scenario endpoints:
	// GET /v1/regions (discovered providers, fleets and grid calibration)
	// and GET /v1/placement/whatif (cross-region placement Pareto front).
	// Discovery is seeded, so equal seeds serve byte-identical answers.
	Scenario *multiregion.Scenario

	// Replica labels this server's metric families, so several replicas
	// of a cluster can share one registry without aliasing counters
	// (default "0"). It is a metrics identity only; routing identity
	// lives in the cluster layer.
	Replica string

	// Now overrides the clock, for deterministic tests.
	Now func() time.Time
	// Methods overrides or extends the attribution method set GET
	// queries run, keyed by query name; mainly for tests (gated methods).
	// Defaults to the four standard methods built with Parallelism. The
	// delta endpoint always runs the standard methods.
	Methods map[string]attribution.Method
}

// DefaultConfig returns the serving defaults; the caller fills Schedule
// and Budget.
func DefaultConfig() Config {
	return Config{
		EnableDelta:    true,
		CacheBytes:     8 << 20,
		CacheShards:    16,
		CacheTTL:       5 * time.Minute,
		DegradedTTL:    15 * time.Second,
		BatchWindow:    5 * time.Millisecond,
		QueryTimeout:   30 * time.Second,
		PricePerTonne:  100,
		SignalMaxStale: livesignal.DefaultMaxStale,
	}
}

// withDefaults fills zero-valued knobs from DefaultConfig.
func withDefaults(cfg Config) Config {
	def := DefaultConfig()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = def.CacheShards
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = def.CacheTTL
	}
	if cfg.DegradedTTL == 0 {
		cfg.DegradedTTL = def.DegradedTTL
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = def.QueryTimeout
	}
	if cfg.PricePerTonne == 0 {
		cfg.PricePerTonne = def.PricePerTonne
	}
	if cfg.SignalMaxStale == 0 {
		cfg.SignalMaxStale = def.SignalMaxStale
	}
	if cfg.Replica == "" {
		cfg.Replica = "0"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

func (cfg Config) validate() error {
	switch {
	case cfg.Schedule == nil:
		return errors.New("attrserver: nil schedule")
	case cfg.Budget <= 0:
		return errors.New("attrserver: budget must be positive")
	case cfg.CacheBytes < 0, cfg.CacheShards < 0:
		return errors.New("attrserver: cache knobs must be non-negative")
	case cfg.CacheTTL < 0, cfg.DegradedTTL < 0, cfg.BatchWindow < 0, cfg.QueryTimeout < 0:
		return errors.New("attrserver: durations must be non-negative")
	case cfg.PricePerTonne < 0:
		return errors.New("attrserver: price must be non-negative")
	}
	return cfg.Schedule.Validate()
}

// Health statuses reported by /healthz. Cluster probers parse the status
// field, so the strings are part of the wire contract: an "ok" replica is
// routable, a "warming" one is alive but still replaying missed commits
// (excluded from rings until it reports ok), and a "draining" one answers
// 503 so probers evict it ahead of shutdown.
const (
	HealthOK       = "ok"
	HealthWarming  = "warming"
	HealthDraining = "draining"
)

// Server answers attribution, share and billing queries over one
// configured schedule.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	inst    *Instruments
	cache   *resultCache
	batch   *batcher
	std     map[string]attribution.Method // the four standard methods
	methods map[string]attribution.Method // std plus Config.Methods
	state   atomic.Pointer[schedState]
	health  atomic.Value // string; empty = HealthOK
	// commitMu serializes delta commits, the only writers of state
	// after New.
	commitMu sync.Mutex
	// groundTruth holds the one slot ground-truth what-ifs run in: each
	// builds its own 2^n coalition table and already uses every core.
	groundTruth chan struct{}
	started     time.Time
}

// schedState is the servable schedule and its cache fingerprint, swapped
// atomically when a delta commit lands. Queries load one snapshot and use
// it throughout, so a concurrent commit never mixes old and new state
// within a single answer; results computed against a superseded snapshot
// are cached under the superseded fingerprint and simply age out.
type schedState struct {
	sched *schedule.Schedule
	fp    uint32
}

// snapshot returns the current schedule state.
func (s *Server) snapshot() *schedState { return s.state.Load() }

// New builds a Server and registers its instruments on reg.
func New(cfg Config, reg *metrics.Registry) (*Server, error) {
	cfg = withDefaults(cfg)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inst := NewReplicaInstruments(reg, cfg.Replica)
	std := map[string]attribution.Method{
		MethodGroundTruth:        attribution.GroundTruth{Parallelism: cfg.Parallelism},
		MethodRUP:                attribution.RUPBaseline{},
		MethodDemandProportional: attribution.DemandProportional{},
		MethodFairCO2:            attribution.TemporalShapley{Parallelism: cfg.Parallelism},
	}
	methods := maps.Clone(std)
	maps.Copy(methods, cfg.Methods)
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		inst:    inst,
		cache:   newResultCache(cfg.CacheBytes, cfg.CacheShards, cfg.Now, inst),
		batch:   newBatcher(cfg.BatchWindow, inst),
		started: cfg.Now(),
		std:     std,
		methods: methods,

		groundTruth: make(chan struct{}, 1),
	}
	s.state.Store(&schedState{sched: cfg.Schedule, fp: configFingerprint(cfg.Schedule, cfg.Budget)})
	return s, nil
}

// answer is one computed result: every workload active in the queried
// period, priced under the period budget. It is the cache value; tenant
// filtering happens at render time so one entry serves every tenant.
type answer struct {
	Method     string
	Start, End int
	Budget     float64
	Intensity  float64 // signal intensity the budget derives from (0 = static)
	Quality    string  // fresh | stale | degraded | static
	ComputedAt time.Time
	IDs        []int     // original workload IDs active in the period
	Grams      []float64 // attribution per IDs entry; sums to Budget
}

// sizeBytes estimates the entry's cache footprint: key, strings, the two
// parallel slices, and fixed struct overhead.
func (a *answer) sizeBytes(key string) int64 {
	const fixed = 160
	return int64(len(key)+len(a.Method)+len(a.Quality)) + int64(len(a.IDs))*24 + fixed
}

// resolve answers a query through the cache, then the batch/coalesce
// stack. Waiting is bounded by ctx; a computation, once started, always
// finishes and fills the cache.
func (s *Server) resolve(ctx context.Context, q querySpec) (*answer, error) {
	st := s.snapshot()
	key := q.cacheKey(st.fp)
	if v, ok := s.cache.get(key); ok {
		return v.(*answer), nil
	}
	v, err := s.batch.Do(ctx, key, func() (any, error) {
		// A query that missed while this key was being computed opened a
		// later batch, which usually fires after that computation has
		// cached its answer: serve it instead of computing it again. The
		// check runs inside the flight, and a computation caches before
		// it leaves the flight group, so it is either joined or found.
		if v, ok := s.cache.peek(key); ok {
			s.inst.Coalesced.Inc()
			return v, nil
		}
		return s.compute(st, q, key)
	})
	if err != nil {
		return nil, err
	}
	return v.(*answer), nil
}

// compute runs one attribution over the queried period and caches it.
func (s *Server) compute(st *schedState, q querySpec, key string) (*answer, error) {
	s.inst.Computations.With(q.method).Inc()
	sub, ids, err := subSchedule(st.sched, q.start, q.end)
	if err != nil {
		return nil, err
	}
	budget, intensity, quality, ttl := s.budgetFor(st, sub, q.start, q.end)
	grams, err := s.methods[q.method].Attribute(sub, budget)
	if err != nil {
		return nil, fmt.Errorf("attrserver: %s over period %d:%d: %w", q.method, q.start, q.end, err)
	}
	ans := &answer{
		Method:     q.method,
		Start:      q.start,
		End:        q.end,
		Budget:     float64(budget),
		Intensity:  intensity,
		Quality:    quality,
		ComputedAt: s.cfg.Now(),
		IDs:        ids,
		Grams:      grams,
	}
	if err := s.gate(ans); err != nil {
		return nil, err
	}
	s.cache.put(key, ans, ans.sizeBytes(key), ttl)
	return ans, nil
}

// errInvariant marks an answer the invariant gate refused; it is served
// as a 500 and never cached.
var errInvariant = errors.New("attrserver: answer breaks the attribution invariants")

// invariantTol bounds an answer's efficiency gap relative to its budget:
// the float64 rounding of an n-term sum sits orders of magnitude below it.
const invariantTol = 1e-9

// gate checks an answer before it is cached or rendered: one finite,
// non-negative share per workload, summing to the budget within
// invariantTol of it (the paper's efficiency axiom). A violation is
// counted by method and returned wrapping errInvariant. The passing path
// does not allocate.
func (s *Server) gate(a *answer) error {
	if err := axioms.CheckShares(a.Grams, len(a.IDs), a.Budget, invariantTol); err != nil {
		s.inst.InvariantViolations.With(a.Method).Inc()
		return fmt.Errorf("%w: %s over period %d:%d: %w", errInvariant, a.Method, a.Start, a.End, err)
	}
	return nil
}

// prorated is the static budget of the slice window [start, end): the
// configured budget scaled by the window's share of all slices.
func (s *Server) prorated(start, end, slices int) units.GramsCO2e {
	return units.GramsCO2e(float64(s.cfg.Budget) * float64(end-start) / float64(slices))
}

// budgetFor prices a period and picks the TTL its result may live for.
// Static mode prorates the configured budget by period length. Signal mode
// prices the period's resource-seconds at the live intensity and walks the
// degradation ladder: fresh samples get the full TTL, stale samples only
// what remains of the staleness bound, and degraded service falls back to
// the prorated budget with a short TTL so recovery is picked up quickly.
func (s *Server) budgetFor(st *schedState, sub *schedule.Schedule, start, end int) (budget units.GramsCO2e, intensity float64, quality string, ttl time.Duration) {
	prorated := s.prorated(start, end, st.sched.Slices)
	if s.cfg.Feed == nil {
		return prorated, 0, "static", s.cfg.CacheTTL
	}
	sample, err := s.cfg.Feed.Intensity()
	if err != nil || sample.Quality == livesignal.QualityDegraded {
		return prorated, 0, livesignal.QualityDegraded.String(), s.cfg.DegradedTTL
	}
	budget = units.GramsCO2e(sample.Intensity * float64(sub.TotalCoreSeconds()))
	ttl = s.cfg.CacheTTL
	if sample.Quality == livesignal.QualityStale {
		if remaining := s.cfg.SignalMaxStale - sample.Age; remaining < ttl {
			ttl = remaining
		}
		if ttl < time.Second {
			ttl = time.Second
		}
	}
	return budget, sample.Intensity, sample.Quality.String(), ttl
}

// Handler returns the service routes: the three query endpoints, the
// metrics exposition and a health endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/attribution", s.queryHandler("attribution", renderAttribution))
	mux.Handle("GET /v1/share", s.queryHandler("share", renderShare))
	mux.Handle("GET /v1/billing", s.queryHandler("billing", renderBilling))
	if s.cfg.EnableDelta {
		mux.Handle("POST /v1/demand/delta", s.instrument("demand-delta", http.HandlerFunc(s.handleDemandDelta)))
	}
	mux.Handle("GET /healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument("metrics", s.reg.Handler()))
	if s.cfg.Stream != nil {
		mux.Handle("GET /v1/stream/window", s.instrument("stream-window", http.HandlerFunc(s.handleStreamWindow)))
		mux.Handle("GET /v1/stream/stats", s.instrument("stream-stats", http.HandlerFunc(s.handleStreamStats)))
	}
	if s.cfg.Scenario != nil {
		mux.Handle("GET /v1/regions", s.instrument("regions", http.HandlerFunc(s.handleRegions)))
		mux.Handle("GET /v1/placement/whatif", s.instrument("placement-whatif", http.HandlerFunc(s.handlePlacementWhatif)))
	}
	return mux
}

// instrument wraps a handler with the in-flight gauge and the per-endpoint
// request/status counter.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inst.Inflight.Inc()
		defer s.inst.Inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		s.inst.Requests.With(endpoint, strconv.Itoa(rec.code)).Inc()
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// queryHandler parses, resolves under the endpoint timeout, and renders.
func (s *Server) queryHandler(endpoint string, render func(*Server, querySpec, *answer) any) http.Handler {
	return s.instrument(endpoint, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, err := s.parseQuery(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		ans, err := s.resolve(ctx, q)
		if err != nil {
			switch {
			case errors.Is(err, errEmptyPeriod):
				writeError(w, http.StatusBadRequest, err)
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				writeError(w, http.StatusGatewayTimeout, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		writeJSON(w, http.StatusOK, render(s, q, ans))
	}))
}

// SetHealthStatus publishes the readiness the health endpoint reports —
// HealthOK, HealthWarming or HealthDraining. The cluster layer drives it
// through the Warming catch-up and graceful-drain lifecycles.
func (s *Server) SetHealthStatus(status string) { s.health.Store(status) }

// HealthStatus is the currently published readiness.
func (s *Server) HealthStatus() string {
	if v, ok := s.health.Load().(string); ok && v != "" {
		return v
	}
	return HealthOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.stats()
	st := s.snapshot()
	status := s.HealthStatus()
	code := http.StatusOK
	if status == HealthDraining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":             status,
		"uptime_seconds":     s.cfg.Now().Sub(s.started).Seconds(),
		"config_fingerprint": fmt.Sprintf("%08x", st.fp),
		"delta_enabled":      s.cfg.EnableDelta,
		"schedule": map[string]any{
			"slices":    st.sched.Slices,
			"workloads": len(st.sched.Workloads),
		},
		"cache": map[string]any{
			"entries": entries,
			"bytes":   bytes,
		},
	})
}

// Response shapes. Field names are the wire contract documented in README.

type periodJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

type signalJSON struct {
	Quality   string  `json:"quality"`
	Intensity float64 `json:"intensity_g_per_core_second"`
}

type queryResponse struct {
	Method      string     `json:"method"`
	Period      periodJSON `json:"period"`
	BudgetGrams float64    `json:"budget_gco2e"`
	Signal      signalJSON `json:"signal"`
	ComputedAt  time.Time  `json:"computed_at"`
	// Exactly one of the following is set, by endpoint.
	Attribution []workloadGrams `json:"workloads,omitempty"`
	Shares      []workloadShare `json:"shares,omitempty"`
	Billing     *billingJSON    `json:"billing,omitempty"`
}

type workloadGrams struct {
	ID    int     `json:"id"`
	Grams float64 `json:"gco2e"`
}

type workloadShare struct {
	ID    int     `json:"id"`
	Share float64 `json:"share"`
}

type billingJSON struct {
	PricePerTonne float64       `json:"price_per_tonne_usd"`
	Lines         []billingLine `json:"lines"`
}

type billingLine struct {
	ID    int     `json:"id"`
	Grams float64 `json:"gco2e"`
	USD   float64 `json:"usd"`
}

// header fills the response fields every endpoint shares.
func header(a *answer) queryResponse {
	return queryResponse{
		Method:      a.Method,
		Period:      periodJSON{Start: a.Start, End: a.End},
		BudgetGrams: a.Budget,
		Signal:      signalJSON{Quality: a.Quality, Intensity: a.Intensity},
		ComputedAt:  a.ComputedAt,
	}
}

// tenantGrams selects the (id, grams) pairs the query asked for: one
// tenant (0 grams when it does not run in the period) or all of them.
func tenantGrams(q querySpec, a *answer) []workloadGrams {
	if q.tenant >= 0 {
		out := []workloadGrams{{ID: q.tenant}}
		for i, id := range a.IDs {
			if id == q.tenant {
				out[0].Grams = a.Grams[i]
			}
		}
		return out
	}
	out := make([]workloadGrams, len(a.IDs))
	for i, id := range a.IDs {
		out[i] = workloadGrams{ID: id, Grams: a.Grams[i]}
	}
	return out
}

func renderAttribution(s *Server, q querySpec, a *answer) any {
	resp := header(a)
	resp.Attribution = tenantGrams(q, a)
	return resp
}

func renderShare(s *Server, q querySpec, a *answer) any {
	total := 0.0
	for _, g := range a.Grams {
		total += g
	}
	resp := header(a)
	for _, wg := range tenantGrams(q, a) {
		share := 0.0
		if total > 0 {
			share = wg.Grams / total
		}
		resp.Shares = append(resp.Shares, workloadShare{ID: wg.ID, Share: share})
	}
	return resp
}

func renderBilling(s *Server, q querySpec, a *answer) any {
	resp := header(a)
	bill := &billingJSON{PricePerTonne: s.cfg.PricePerTonne}
	for _, wg := range tenantGrams(q, a) {
		bill.Lines = append(bill.Lines, billingLine{
			ID:    wg.ID,
			Grams: wg.Grams,
			USD:   wg.Grams / 1e6 * s.cfg.PricePerTonne,
		})
	}
	resp.Billing = bill
	return resp
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
