package attrserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fairco2/internal/schedule"
)

// The POST /v1/demand/delta endpoint answers "what if tenant i demanded
// X instead?" queries and optionally commits them. An edit becomes a
// validated trial clone of the serving snapshot, and fullWindow answers
// the trial with the standard method New built for the GET path, so a
// delta answer is bitwise-identical to the GET path's by construction.
// Edits never run a Config.Methods override and never count in
// computations_total: those count GET computations only.
//
// A what-if takes no lock and leaves the server untouched; ground-truth
// what-ifs, which build a 2^n table each, run one at a time. Commits
// serialize on commitMu; each builds the next schedule generation, warms
// its fresh cache with the cheap full-window answers (fair-co2, rup,
// demand-proportional) and the committed method's own, and publishes it.
// Ground truth costs 2^n, so a commit leaves it to the one replica that
// owns its key, which computes it on its first read.

// cloneSchedule deep-copies a schedule so a trial edit never aliases the
// workload slice of a served snapshot.
func cloneSchedule(s *schedule.Schedule) *schedule.Schedule {
	c := *s
	c.Workloads = append([]schedule.Workload(nil), s.Workloads...)
	return &c
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

type deltaResponse struct {
	Method      string            `json:"method"`
	Period      periodJSON        `json:"period"`
	BudgetGrams float64           `json:"budget_gco2e"`
	Committed   bool              `json:"committed"`
	Fingerprint string            `json:"config_fingerprint"`
	Workload    deltaWorkloadJSON `json:"workload"`
	Attribution []workloadGrams   `json:"workloads"`
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
	resp, code, err := s.applyDelta(r.Context(), req)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyDelta validates the requested change on a trial clone of the
// serving schedule, answers it over the full window, and commits the
// trial when asked. A valid ground-truth what-if waits, under ctx and at
// most QueryTimeout, for the server's ground-truth slot. The returned int
// is the HTTP status to use when err is non-nil.
func (s *Server) applyDelta(ctx context.Context, req deltaRequest) (*deltaResponse, int, error) {
	method := req.Method
	if method == "" {
		method = MethodFairCO2
	}
	if _, ok := s.std[method]; !ok {
		return nil, http.StatusBadRequest, fmt.Errorf("attrserver: delta endpoint does not serve method %q", method)
	}
	if req.Commit {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
	}
	trial := cloneSchedule(s.snapshot().sched)
	if req.Tenant < 0 || req.Tenant >= len(trial.Workloads) {
		return nil, http.StatusBadRequest, fmt.Errorf("attrserver: tenant %d is not a workload ID in [0, %d)", req.Tenant, len(trial.Workloads))
	}
	mod := &trial.Workloads[req.Tenant]
	if req.Cores != nil {
		mod.Cores = *req.Cores
	}
	if req.Start != nil {
		mod.Start = *req.Start
	}
	if req.Duration != nil {
		mod.Duration = *req.Duration
	}
	if err := trial.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if !req.Commit && method == MethodGroundTruth {
		ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
		select {
		case s.groundTruth <- struct{}{}:
			defer func() { <-s.groundTruth }()
		case <-ctx.Done():
			return nil, http.StatusGatewayTimeout, fmt.Errorf("attrserver: waiting for the ground-truth what-if slot: %w", ctx.Err())
		}
	}
	ans, err := s.fullWindow(method, trial)
	if err != nil {
		if errors.Is(err, errInvariant) {
			return nil, http.StatusInternalServerError, err
		}
		return nil, http.StatusBadRequest, err
	}
	var fp uint32
	if req.Commit {
		fp = s.commit(trial, ans)
	} else {
		fp = configFingerprint(trial, s.cfg.Budget)
	}
	return &deltaResponse{
		Method:      ans.Method,
		Period:      periodJSON{Start: ans.Start, End: ans.End},
		BudgetGrams: ans.Budget,
		Committed:   req.Commit,
		Fingerprint: fmt.Sprintf("%08x", fp),
		Workload:    deltaWorkloadJSON{ID: mod.ID, Cores: mod.Cores, Start: mod.Start, Duration: mod.Duration},
		Attribution: tenantGrams(querySpec{tenant: -1}, ans),
		ComputedAt:  ans.ComputedAt,
	}, 0, nil
}

// commit builds the generation serving sched, warms its cache with ans
// and the cheap full-window answers, publishes it and returns its
// fingerprint. Under static pricing those entries are what compute()
// would produce, so the next full-window GETs for those methods are hits;
// under live pricing budgets are signal-driven per query, so nothing is
// warmed. Callers hold commitMu.
func (s *Server) commit(sched *schedule.Schedule, ans *answer) uint32 {
	next := s.generation(sched)
	if s.cfg.Feed == nil {
		warm := func(a *answer) {
			next.cache.put(cacheKey{method: a.Method, start: 0, end: sched.Slices}, a, a.sizeBytes(), s.cfg.CacheTTL)
		}
		warm(ans)
		for _, m := range []string{MethodFairCO2, MethodRUP, MethodDemandProportional} {
			if m == ans.Method {
				continue
			}
			if a, err := s.fullWindow(m, sched); err == nil {
				warm(a)
			}
		}
	}
	s.state.Store(next)
	return next.fp
}

// fullWindow answers a standard method over the whole of sched at the
// static full-window budget, through the invariant gate. Served schedules
// keep dense IDs, so the GET path's subSchedule of the full window is an
// equal copy of sched: sched is attributed as it is, with IDs 0..n-1.
func (s *Server) fullWindow(method string, sched *schedule.Schedule) (*answer, error) {
	budget := s.prorated(0, sched.Slices, sched.Slices)
	grams, err := s.std[method].Attribute(sched, budget)
	if err != nil {
		return nil, fmt.Errorf("attrserver: %s over the full window: %w", method, err)
	}
	ids := make([]int, len(sched.Workloads))
	for i := range ids {
		ids[i] = i
	}
	ans := &answer{
		Method:     method,
		Start:      0,
		End:        sched.Slices,
		Budget:     float64(budget),
		Quality:    "static",
		ComputedAt: s.cfg.Now(),
		IDs:        ids,
		Grams:      grams,
	}
	if err := s.gate(ans); err != nil {
		return nil, err
	}
	return ans, nil
}
