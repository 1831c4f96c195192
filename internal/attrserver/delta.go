package attrserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/schedule"
	"fairco2/internal/shapley"
	"fairco2/internal/temporal"
	"fairco2/internal/units"
)

// The POST /v1/demand/delta endpoint answers "what if tenant i demanded
// X instead?" queries — and optionally commits them — through the
// incremental delta engines rather than full recomputation:
//
//   - shapley.DeltaTable keeps the exact coalition-value table warm and
//     re-evaluates only the coalitions containing the changed tenant
//     (2^n - 2^(n-1) of 2^n for one tenant), serving ground-truth Shapley.
//   - temporal.SignalDelta keeps the Fair-CO2 intensity signal warm and
//     re-attributes only top-level periods whose demand or share moved,
//     serving fair-co2.
//
// Both engines guarantee bitwise identity with a fresh rebuild, so a
// delta answer is indistinguishable from the full computation the GET
// endpoints would run — the differential tests pin this. A what-if
// patches, and then reverts, only the engine its method reads: the signal
// for fair-co2, the table for ground-truth, and neither for rup and
// demand-proportional, which are answered from the schedule alone. A
// skipped engine is never read and stays in step with the committed
// schedule, and the what-if's delta block reports zero work for it. A
// commit patches both engines, swaps the server's schedule snapshot and
// patches the result cache under the new fingerprint with answers derived
// from them, so the next full-window GET for any standard method is a
// cache hit instead of an eviction-triggered recomputation.

// deltaEngine owns a mutable clone of the serving schedule plus the two
// incremental engines, both consistent with it between requests. All
// mutation happens under mu; what-if queries apply, answer, and revert
// while holding it.
type deltaEngine struct {
	mu     sync.Mutex
	budget units.GramsCO2e
	par    int
	sched  *schedule.Schedule    // owned clone, mutated by applies
	sig    *temporal.SignalDelta // full-window Fair-CO2 intensity
	dt     *shapley.DeltaTable   // nil when the schedule exceeds shapley.MaxExactPlayers
}

// cloneSchedule deep-copies a schedule so engine mutations never alias
// the caller's (or a served snapshot's) workload slice.
func cloneSchedule(s *schedule.Schedule) *schedule.Schedule {
	c := *s
	c.Workloads = append([]schedule.Workload(nil), s.Workloads...)
	return &c
}

// newDeltaEngine builds the engines against the initial schedule. The
// temporal signal uses the same single-level split TemporalShapley
// defaults to, so its intensity matches the fair-co2 GET path bitwise;
// the Shapley table is built only when exact enumeration is feasible.
func newDeltaEngine(src *schedule.Schedule, budget units.GramsCO2e, par int) (*deltaEngine, error) {
	e := &deltaEngine{budget: budget, par: par, sched: cloneSchedule(src)}
	sig, err := temporal.IntensitySignalDelta(e.sched.Demand(), budget, temporal.Config{SplitRatios: []int{e.sched.Slices}})
	if err != nil {
		return nil, fmt.Errorf("attrserver: building delta signal: %w", err)
	}
	e.sig = sig
	if n := len(e.sched.Workloads); n <= shapley.MaxExactPlayers {
		dt, err := shapley.NewDeltaTableIncremental(n, e.game, par)
		if err != nil {
			return nil, fmt.Errorf("attrserver: building delta table: %w", err)
		}
		e.dt = dt
	}
	return e, nil
}

// game returns a fresh incremental coalition-peak game over the engine's
// current schedule; delta applies re-evaluate affected coalitions with it.
func (e *deltaEngine) game() (add, remove func(int), value func() float64) {
	return attribution.DemandPeakGame(e.sched)
}

// engines selects the delta engines an apply patches.
type engines uint8

const (
	patchSignal engines = 1 << iota // temporal.SignalDelta, read by fair-co2
	patchTable                      // shapley.DeltaTable, read by ground-truth
)

// enginesFor returns the engines an edit must patch. A commit patches
// both, because commitLocked warms every method from them; a what-if
// patches only the one its method reads.
func enginesFor(method string, commit bool) engines {
	switch {
	case commit:
		return patchSignal | patchTable
	case method == MethodFairCO2:
		return patchSignal
	case method == MethodGroundTruth:
		return patchTable
	}
	return 0
}

// applyLocked installs workload w (replacing the one with its ID) and
// patches the selected engines through their delta paths. On error the
// schedule and engines are rolled back to the pre-call state. Callers
// hold e.mu.
func (e *deltaEngine) applyLocked(w schedule.Workload, patch engines) (tstats temporal.DeltaStats, sstats shapley.DeltaStats, err error) {
	old := e.sched.Workloads[w.ID]
	e.sched.Workloads[w.ID] = w
	if patch&patchSignal != 0 {
		if tstats, err = e.sig.Update(e.sched.Demand()); err != nil {
			e.sched.Workloads[w.ID] = old
			return temporal.DeltaStats{}, shapley.DeltaStats{}, err
		}
	}
	if patch&patchTable != 0 && e.dt != nil {
		if sstats, err = e.dt.ApplyIncremental(1<<uint(w.ID), e.game, e.par); err != nil {
			e.sched.Workloads[w.ID] = old
			if patch&patchSignal != 0 {
				if _, rerr := e.sig.Update(e.sched.Demand()); rerr != nil {
					err = errors.Join(err, rerr)
				}
			}
			return temporal.DeltaStats{}, shapley.DeltaStats{}, err
		}
	}
	return tstats, sstats, nil
}

// answerLocked derives a full-window answer for a standard method from
// the engine it reads, which the caller has patched. It is
// bitwise-identical to what compute() would produce for the same schedule
// under static pricing: the full-window prorated budget equals the
// configured budget exactly, the delta table equals a fresh coalition
// table, and the delta signal equals a fresh intensity signal. Callers
// hold e.mu.
func (e *deltaEngine) answerLocked(method string, now time.Time) (*answer, error) {
	var grams []float64
	var err error
	switch method {
	case MethodFairCO2:
		grams, err = attribution.AttributeByIntensity(e.sched, e.sig.Intensity())
	case MethodGroundTruth:
		var phi []float64
		phi, err = shapley.ExactFromTable(len(e.sched.Workloads), e.dt.Table())
		if err == nil {
			grams, err = attribution.NormalizeShares(phi, e.budget)
		}
	case MethodRUP:
		grams, err = attribution.RUPBaseline{}.Attribute(e.sched, e.budget)
	case MethodDemandProportional:
		grams, err = attribution.DemandProportional{}.Attribute(e.sched, e.budget)
	default:
		return nil, fmt.Errorf("attrserver: delta endpoint does not serve method %q", method)
	}
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(e.sched.Workloads))
	for i := range ids {
		ids[i] = i
	}
	return &answer{
		Method:     method,
		Start:      0,
		End:        e.sched.Slices,
		Budget:     float64(e.budget),
		Quality:    "static",
		ComputedAt: now,
		IDs:        ids,
		Grams:      grams,
	}, nil
}

// deltaRequest is the POST /v1/demand/delta body. Tenant selects the
// workload; nil fields keep their current values, so a body setting only
// cores models a pure demand change. Commit makes the change the serving
// schedule; otherwise it is a what-if and the server state is untouched.
type deltaRequest struct {
	Tenant   int    `json:"tenant"`
	Cores    *int   `json:"cores,omitempty"`
	Start    *int   `json:"start,omitempty"`
	Duration *int   `json:"duration,omitempty"`
	Method   string `json:"method,omitempty"`
	Commit   bool   `json:"commit,omitempty"`
}

type deltaWorkloadJSON struct {
	ID       int `json:"id"`
	Cores    int `json:"cores"`
	Start    int `json:"start"`
	Duration int `json:"duration"`
}

// deltaStatsJSON surfaces how much work the delta engines actually did —
// the observable counterpart of the fairco2_shapley_delta_* metrics.
type deltaStatsJSON struct {
	ShapleyBlocksRecomputed int `json:"shapley_blocks_recomputed"`
	ShapleyBlocksSkipped    int `json:"shapley_blocks_skipped"`
	ShapleyCoalitions       int `json:"shapley_coalitions_reevaluated"`
	PeriodsRecomputed       int `json:"temporal_periods_recomputed"`
	PeriodsSkipped          int `json:"temporal_periods_skipped"`
}

type deltaResponse struct {
	Method      string            `json:"method"`
	Period      periodJSON        `json:"period"`
	BudgetGrams float64           `json:"budget_gco2e"`
	Committed   bool              `json:"committed"`
	Fingerprint string            `json:"config_fingerprint"`
	Workload    deltaWorkloadJSON `json:"workload"`
	Attribution []workloadGrams   `json:"workloads"`
	Delta       deltaStatsJSON    `json:"delta"`
	ComputedAt  time.Time         `json:"computed_at"`
}

// handleDemandDelta decodes, applies, and renders a delta query.
func (s *Server) handleDemandDelta(w http.ResponseWriter, r *http.Request) {
	var req deltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("attrserver: decoding delta request: %w", err))
		return
	}
	resp, code, err := s.applyDelta(req)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyDelta validates the requested change, patches the engines the edit
// needs, answers over the full window, and either reverts (what-if) or
// commits. The returned int is the HTTP status to use when err is non-nil.
func (s *Server) applyDelta(req deltaRequest) (*deltaResponse, int, error) {
	method := req.Method
	if method == "" {
		method = MethodFairCO2
	}
	e := s.delta
	e.mu.Lock()
	defer e.mu.Unlock()

	if req.Tenant < 0 || req.Tenant >= len(e.sched.Workloads) {
		return nil, http.StatusBadRequest, fmt.Errorf("attrserver: tenant %d is not a workload ID in [0, %d)", req.Tenant, len(e.sched.Workloads))
	}
	if method == MethodGroundTruth && e.dt == nil {
		return nil, http.StatusBadRequest, fmt.Errorf("attrserver: ground-truth delta needs at most %d workloads, schedule has %d", shapley.MaxExactPlayers, len(e.sched.Workloads))
	}
	old := e.sched.Workloads[req.Tenant]
	mod := old
	if req.Cores != nil {
		mod.Cores = *req.Cores
	}
	if req.Start != nil {
		mod.Start = *req.Start
	}
	if req.Duration != nil {
		mod.Duration = *req.Duration
	}
	trial := cloneSchedule(e.sched)
	trial.Workloads[req.Tenant] = mod
	if err := trial.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}

	patch := enginesFor(method, req.Commit)
	tstats, sstats, err := e.applyLocked(mod, patch)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	ans, err := e.answerLocked(method, s.cfg.Now())
	if err != nil {
		if _, _, rerr := e.applyLocked(old, patch); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return nil, http.StatusBadRequest, err
	}
	fp := configFingerprint(e.sched, s.cfg.Budget)
	if req.Commit {
		s.commitLocked(e, fp, method, ans)
	} else if _, _, rerr := e.applyLocked(old, patch); rerr != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("attrserver: reverting what-if: %w", rerr)
	}

	resp := &deltaResponse{
		Method:      ans.Method,
		Period:      periodJSON{Start: ans.Start, End: ans.End},
		BudgetGrams: ans.Budget,
		Committed:   req.Commit,
		Fingerprint: fmt.Sprintf("%08x", fp),
		Workload:    deltaWorkloadJSON{ID: mod.ID, Cores: mod.Cores, Start: mod.Start, Duration: mod.Duration},
		Attribution: tenantGrams(querySpec{tenant: -1}, ans),
		Delta: deltaStatsJSON{
			ShapleyBlocksRecomputed: sstats.BlocksRecomputed,
			ShapleyBlocksSkipped:    sstats.BlocksSkipped,
			ShapleyCoalitions:       sstats.Coalitions,
			PeriodsRecomputed:       tstats.PeriodsRecomputed,
			PeriodsSkipped:          tstats.PeriodsSkipped,
		},
		ComputedAt: ans.ComputedAt,
	}
	return resp, 0, nil
}

// commitLocked publishes the engine's (already patched) schedule as the
// serving snapshot and patches the result cache under the new fingerprint
// with full-window answers for every standard method, all derived from
// the delta engines. Under static pricing those entries are
// bitwise-identical to what compute() would produce, so subsequent GETs
// hit the cache with zero recomputation; under live pricing budgets are
// signal-driven per query, so warming is skipped and queries recompute.
// Callers hold e.mu.
func (s *Server) commitLocked(e *deltaEngine, fp uint32, method string, ans *answer) {
	sched := cloneSchedule(e.sched)
	s.state.Store(&schedState{sched: sched, fp: fp})
	if s.cfg.Feed != nil {
		return
	}
	warm := map[string]*answer{method: ans}
	for _, m := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		if _, ok := warm[m]; ok {
			continue
		}
		if m == MethodGroundTruth && e.dt == nil {
			continue
		}
		if a, err := e.answerLocked(m, s.cfg.Now()); err == nil {
			warm[m] = a
		}
	}
	for m, a := range warm {
		key := querySpec{method: m, start: 0, end: sched.Slices, tenant: -1}.cacheKey(fp)
		s.cache.put(key, a, a.sizeBytes(key), s.cfg.CacheTTL)
	}
}
