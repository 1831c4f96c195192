// Package axioms turns §4's four Shapley fairness properties — efficiency,
// symmetry, null player, linearity — into executable checks against any
// schedule-attribution method. The ground truth satisfies all four by
// construction; the baselines fail in characteristic ways (RUP violates
// the null-player property because it bills pure resource-time even when
// the resource-time never moves the peak), and the checks quantify how
// closely an approximation like Temporal Shapley honours each property.
package axioms

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairco2/internal/attribution"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// Violation describes one failed check.
type Violation struct {
	Axiom string
	// Magnitude is the relative size of the violation (0 = satisfied).
	Magnitude float64
	Detail    string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("axioms: %s violated (magnitude %.4f): %s", v.Axiom, v.Magnitude, v.Detail)
}

// Report collects one method's results over randomized instances.
type Report struct {
	Method string
	// Violations lists failed checks; empty means all axioms held within
	// tolerance on every instance tested.
	Violations []Violation
}

// Config bounds the randomized checking.
type Config struct {
	// Instances is the number of random schedules per axiom.
	Instances int
	// Seed drives instance generation.
	Seed int64
	// Tolerance is the relative error treated as satisfied (exact
	// methods pass at 1e-9; approximations need looser bounds).
	Tolerance float64
	// Budget is the carbon attributed per instance.
	Budget units.GramsCO2e
}

// DefaultConfig checks 25 instances at near-exact tolerance.
func DefaultConfig() Config {
	return Config{Instances: 25, Seed: 1, Tolerance: 1e-9, Budget: 1e6}
}

func (c Config) validate() error {
	if c.Instances < 1 {
		return errors.New("axioms: need at least one instance")
	}
	if c.Tolerance < 0 {
		return errors.New("axioms: negative tolerance")
	}
	if c.Budget <= 0 {
		return errors.New("axioms: budget must be positive")
	}
	return nil
}

func generator() schedule.GeneratorConfig {
	cfg := schedule.DefaultGeneratorConfig()
	cfg.MaxWorkloads = 8
	return cfg
}

// CheckEfficiency verifies the full budget is attributed.
func CheckEfficiency(m attribution.Method, cfg Config) []Violation {
	if err := cfg.validate(); err != nil {
		return []Violation{{Axiom: "efficiency", Magnitude: math.Inf(1), Detail: err.Error()}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Violation
	for i := 0; i < cfg.Instances; i++ {
		s, err := schedule.Generate(generator(), rng)
		if err != nil {
			return []Violation{{Axiom: "efficiency", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		attr, err := m.Attribute(s, cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "efficiency", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		if v, ok := CheckShares(attr, len(s.Workloads), float64(cfg.Budget), cfg.Tolerance).(Violation); ok {
			v.Detail = fmt.Sprintf("instance %d: %s", i, v.Detail)
			out = append(out, v)
		}
	}
	return out
}

// CheckShares checks one attribution of budget over n workloads against
// the invariants every answer must keep: one share per workload, each
// finite and non-negative, summing to budget within tol times its
// magnitude (§4's efficiency). It returns nil or a Violation of the
// efficiency axiom naming the first broken invariant, and allocates only
// when it finds one, so a server can run it on every answer it serves.
func CheckShares(shares []float64, n int, budget, tol float64) error {
	if len(shares) != n {
		return Violation{Axiom: "efficiency", Magnitude: math.Inf(1),
			Detail: fmt.Sprintf("%d shares for %d workloads", len(shares), n)}
	}
	sum := 0.0
	for i, v := range shares {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Violation{Axiom: "efficiency", Magnitude: math.Inf(1),
				Detail: fmt.Sprintf("share %d is %v", i, v)}
		}
		if v < 0 {
			return Violation{Axiom: "efficiency", Magnitude: -v / math.Abs(budget),
				Detail: fmt.Sprintf("share %d is negative (%.6g)", i, v)}
		}
		sum += v
	}
	if gap := math.Abs(sum - budget); !(gap <= tol*math.Abs(budget)) {
		return Violation{Axiom: "efficiency", Magnitude: gap / math.Abs(budget),
			Detail: fmt.Sprintf("attributed %.6g of %.6g", sum, budget)}
	}
	return nil
}

// CheckSymmetry verifies identical workloads receive identical shares: a
// random schedule is augmented with an exact twin of one workload.
func CheckSymmetry(m attribution.Method, cfg Config) []Violation {
	if err := cfg.validate(); err != nil {
		return []Violation{{Axiom: "symmetry", Magnitude: math.Inf(1), Detail: err.Error()}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var out []Violation
	for i := 0; i < cfg.Instances; i++ {
		s, err := schedule.Generate(generator(), rng)
		if err != nil {
			return []Violation{{Axiom: "symmetry", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		twinOf := rng.Intn(len(s.Workloads))
		twin := s.Workloads[twinOf]
		twin.ID = len(s.Workloads)
		s.Workloads = append(s.Workloads, twin)
		attr, err := m.Attribute(s, cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "symmetry", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		a, b := attr[twinOf], attr[twin.ID]
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale == 0 {
			continue
		}
		if rel := math.Abs(a-b) / scale; rel > cfg.Tolerance {
			out = append(out, Violation{
				Axiom:     "symmetry",
				Magnitude: rel,
				Detail:    fmt.Sprintf("instance %d: twins received %.6g and %.6g", i, a, b),
			})
		}
	}
	return out
}

// CheckNullPlayer verifies a workload whose resource-time never drives
// capacity is attributed (approximately) nothing beyond its true marginal.
// The construction is the long-running off-peak idler: a peak workload
// owns one slice with heavy demand, the near-null workload trickles a few
// cores through every other slice. Its exact Shapley share is tiny
// (capacity is set by the peak slice); any method billing materially more
// is charging resource-time that never moved the peak — the paper's §3.1
// complaint about resource-proportional accounting, as a check.
func CheckNullPlayer(m attribution.Method, cfg Config) []Violation {
	if err := cfg.validate(); err != nil {
		return []Violation{{Axiom: "null-player", Magnitude: math.Inf(1), Detail: err.Error()}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	var out []Violation
	for i := 0; i < cfg.Instances; i++ {
		slices := 6 + rng.Intn(5)
		peakSlice := rng.Intn(slices)
		s := &schedule.Schedule{
			Slices:        slices,
			SliceDuration: units.SecondsPerHour,
			Workloads: []schedule.Workload{
				{ID: 0, Cores: 96, Start: peakSlice, Duration: 1},
			},
		}
		// The idler fills every slice except the peak one... it must be
		// contiguous, so it takes the longer side of the window.
		var start, duration int
		if peakSlice >= slices-peakSlice-1 {
			start, duration = 0, peakSlice
		} else {
			start, duration = peakSlice+1, slices-peakSlice-1
		}
		if duration == 0 {
			continue
		}
		idler := schedule.Workload{ID: 1, Cores: 4, Start: start, Duration: duration}
		s.Workloads = append(s.Workloads, idler)

		exact, err := attribution.GroundTruth{}.Attribute(s, cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "null-player", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		attr, err := m.Attribute(s, cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "null-player", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		bound := 3*exact[idler.ID] + cfg.Tolerance*float64(cfg.Budget)
		if attr[idler.ID] > bound {
			out = append(out, Violation{
				Axiom:     "null-player",
				Magnitude: attr[idler.ID] / math.Max(exact[idler.ID], 1e-12),
				Detail: fmt.Sprintf("instance %d: off-peak idler billed %.6g, exact share %.6g",
					i, attr[idler.ID], exact[idler.ID]),
			})
		}
	}
	return out
}

// CheckLinearity verifies attribution is linear in the budget (the
// restricted linearity every rate-based method should satisfy).
func CheckLinearity(m attribution.Method, cfg Config) []Violation {
	if err := cfg.validate(); err != nil {
		return []Violation{{Axiom: "linearity", Magnitude: math.Inf(1), Detail: err.Error()}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	var out []Violation
	for i := 0; i < cfg.Instances; i++ {
		s, err := schedule.Generate(generator(), rng)
		if err != nil {
			return []Violation{{Axiom: "linearity", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		a, err := m.Attribute(s, cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "linearity", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		b, err := m.Attribute(s, 3*cfg.Budget)
		if err != nil {
			return []Violation{{Axiom: "linearity", Magnitude: math.Inf(1), Detail: err.Error()}}
		}
		for w := range a {
			if a[w] == 0 && b[w] == 0 {
				continue
			}
			scale := math.Max(math.Abs(3*a[w]), math.Abs(b[w]))
			if rel := math.Abs(b[w]-3*a[w]) / scale; rel > cfg.Tolerance {
				out = append(out, Violation{
					Axiom:     "linearity",
					Magnitude: rel,
					Detail:    fmt.Sprintf("instance %d workload %d: 3x budget gave %.6g, want %.6g", i, w, b[w], 3*a[w]),
				})
				break
			}
		}
	}
	return out
}

// CheckAll runs the four axioms and collects a report.
func CheckAll(m attribution.Method, cfg Config) Report {
	r := Report{Method: m.Name()}
	r.Violations = append(r.Violations, CheckEfficiency(m, cfg)...)
	r.Violations = append(r.Violations, CheckSymmetry(m, cfg)...)
	r.Violations = append(r.Violations, CheckNullPlayer(m, cfg)...)
	r.Violations = append(r.Violations, CheckLinearity(m, cfg)...)
	return r
}

// Satisfied reports whether all axioms held.
func (r Report) Satisfied() bool { return len(r.Violations) == 0 }

// ByAxiom counts violations per axiom.
func (r Report) ByAxiom() map[string]int {
	out := map[string]int{}
	for _, v := range r.Violations {
		out[v.Axiom]++
	}
	return out
}
