package attrserver

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"fairco2/internal/checkpoint"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// Method names accepted by the query endpoints; they mirror the top-level
// fairco2.Method* constants.
const (
	MethodGroundTruth        = "ground-truth"
	MethodRUP                = "rup"
	MethodDemandProportional = "demand-proportional"
	MethodFairCO2            = "fair-co2"
)

// errEmptyPeriod reports a queried period with no running workloads: there
// is nothing to attribute, which is a client error, not a server one.
var errEmptyPeriod = errors.New("attrserver: period has no running workloads")

// querySpec is a parsed, validated attribution query: the method and the
// queried slice window [start, end), which key its result, plus a tenant
// filter.
type querySpec struct {
	cacheKey
	// tenant filters the response to one workload ID; -1 means all.
	tenant int
}

// parseQuery validates the request parameters against the configured
// schedule and method set.
//
//	method  attribution method name        (default fair-co2)
//	period  slice window as "start:end"    (default the whole schedule)
//	tenant  workload ID to filter to       (default all)
func (s *Server) parseQuery(r *http.Request) (querySpec, error) {
	st := s.snapshot()
	q := querySpec{cacheKey: cacheKey{method: MethodFairCO2, start: 0, end: st.sched.Slices}, tenant: -1}
	vals := r.URL.Query()

	if m := vals.Get("method"); m != "" {
		if _, ok := s.methods[m]; !ok {
			return q, fmt.Errorf("unknown method %q", m)
		}
		q.method = m
	}
	if p := vals.Get("period"); p != "" {
		a, b, ok := strings.Cut(p, ":")
		if !ok {
			return q, fmt.Errorf("period %q is not start:end", p)
		}
		start, err1 := strconv.Atoi(a)
		end, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil {
			return q, fmt.Errorf("period %q is not start:end", p)
		}
		if start < 0 || end > st.sched.Slices || start >= end {
			return q, fmt.Errorf("period %d:%d outside schedule window [0, %d)", start, end, st.sched.Slices)
		}
		q.start, q.end = start, end
	}
	if t := vals.Get("tenant"); t != "" {
		id, err := strconv.Atoi(t)
		if err != nil || id < 0 || id >= len(st.sched.Workloads) {
			return q, fmt.Errorf("tenant %q is not a workload ID in [0, %d)", t, len(st.sched.Workloads))
		}
		q.tenant = id
	}
	return q, nil
}

// CanonicalQueryKey parses r exactly as the GET query endpoints do and
// returns the ring key of the computation it resolves to: the config
// fingerprint plus the query's method and period, as
// "cfg=%08x/m=<method>/p=<start>:<end>". The cluster proxy routes on this
// key: identical queries route to one owner, whose cache + singleflight
// then guarantee the computation runs at most once cluster-wide. The
// result cache itself keys by method and period only, within the
// schedule generation the fingerprint names.
func (s *Server) CanonicalQueryKey(r *http.Request) (string, error) {
	q, err := s.parseQuery(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cfg=%08x/m=%s/p=%d:%d", s.snapshot().fp, q.method, q.start, q.end), nil
}

// Fingerprint returns the serving schedule's current config fingerprint —
// the same value embedded in ring keys and rotated by delta commits.
func (s *Server) Fingerprint() uint32 { return s.snapshot().fp }

// configFingerprint names everything a result depends on besides the
// query itself, for ring keys and cluster convergence checks: the schedule
// layout and the static budget, hashed with the same CRC machinery the
// checkpointed sweeps use for their config keys. Parallelism is excluded —
// attribution is bitwise-identical for any worker count, the same contract
// checkpoint resume relies on.
func configFingerprint(s *schedule.Schedule, budget units.GramsCO2e) uint32 {
	vals := make([]uint64, 0, 4+3*len(s.Workloads))
	vals = append(vals,
		uint64(s.Slices),
		math.Float64bits(float64(s.SliceDuration)),
		math.Float64bits(float64(budget)),
		uint64(len(s.Workloads)),
	)
	for _, w := range s.Workloads {
		vals = append(vals, uint64(w.Cores), uint64(w.Start), uint64(w.Duration))
	}
	return checkpoint.Uint64sCRC(vals)
}

// subSchedule restricts s to the slice window [start, end), clipping
// workloads to the window and re-identifying them densely (the schedule
// invariants require dense IDs). The returned ids map each sub-schedule
// workload back to its original ID.
func subSchedule(s *schedule.Schedule, start, end int) (*schedule.Schedule, []int, error) {
	sub := &schedule.Schedule{Slices: end - start, SliceDuration: s.SliceDuration}
	var ids []int
	for _, w := range s.Workloads {
		ws, we := max(w.Start, start), min(w.End(), end)
		if ws >= we {
			continue
		}
		sub.Workloads = append(sub.Workloads, schedule.Workload{
			ID:       len(ids),
			Cores:    w.Cores,
			Start:    ws - start,
			Duration: we - ws,
		})
		ids = append(ids, w.ID)
	}
	if len(ids) == 0 {
		return nil, nil, errEmptyPeriod
	}
	return sub, ids, nil
}
