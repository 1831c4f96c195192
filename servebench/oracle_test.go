package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// twoWorkloads: workload 0 runs slice 0 on 10 cores, workload 1 runs
// slice 1 on 20 cores, one-hour slices.
func twoWorkloads() *schedule.Schedule {
	return &schedule.Schedule{Slices: 2, SliceDuration: 3600, Workloads: []schedule.Workload{
		{ID: 0, Cores: 10, Start: 0, Duration: 1},
		{ID: 1, Cores: 20, Start: 1, Duration: 1},
	}}
}

// TestOracleByHand pins each method on a schedule small enough to solve
// on paper: v({0}) = 10, v({1}) = v({0,1}) = 20.
func TestOracleByHand(t *testing.T) {
	cases := map[string][2]float64{
		// Shapley: phi_0 = (10 + 0) / 2, phi_1 = (20 + 10) / 2, of v = 20.
		methodGroundTruth: {5.0 / 20, 15.0 / 20},
		// Airport game over slice peaks 10, 20: phi = 5, 15; slice shares
		// phi q / sum = 5*10 : 15*20.
		methodFairCO2: {50.0 / 350, 300.0 / 350},
		// Core-seconds 10 : 20.
		methodRUP: {1.0 / 3, 2.0 / 3},
		// Demand squared 100 : 400.
		methodDemand: {0.2, 0.8},
	}
	for method, want := range cases {
		got, err := expect(method, twoWorkloads(), period{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !near(got.grams[i], want[i]*budgetGrams, budgetGrams) {
				t.Errorf("%s: workload %d got %v, want %v", method, i, got.grams[i], want[i]*budgetGrams)
			}
		}
	}
}

// serve answers GETs from a real attrserver in process.
func serve(t *testing.T, s *schedule.Schedule) func(q query) *wireAnswer {
	t.Helper()
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = s
	cfg.Budget = units.GramsCO2e(budgetGrams)
	cfg.BatchWindow = 0
	srv, err := attrserver.New(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	return func(q query) *wireAnswer {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.path(), rec.Code, rec.Body)
		}
		a, err := decodeAnswer(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

func deckSchedule(t *testing.T, n int) *schedule.Schedule {
	t.Helper()
	deck, err := drawDecks(rand.New(rand.NewSource(3)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range deck {
		if len(s.Workloads) == n {
			return s
		}
	}
	t.Fatalf("deck has no schedule with %d workloads", n)
	return nil
}

// TestServedAnswersPass: the program's answers pass every check, for
// every endpoint, method and period, with and without a tenant filter.
func TestServedAnswersPass(t *testing.T) {
	s := deckSchedule(t, 10)
	get := serve(t, s)
	for _, e := range endpoints {
		for _, m := range methodNames {
			for _, p := range periods(s) {
				for _, tenant := range []int{-1, 3} {
					q := query{endpoint: e, method: m, period: p, tenant: tenant}
					want, err := expect(m, s, p)
					if err != nil {
						t.Fatal(err)
					}
					if problems := checkQuery(q, get(q), want); len(problems) > 0 {
						t.Fatalf("%s: %v", q.path(), problems)
					}
				}
			}
		}
	}
}

// TestChecksRejectPerturbedAnswers feeds each check a served answer with
// one perturbation and expects that check to fail.
func TestChecksRejectPerturbedAnswers(t *testing.T) {
	s := deckSchedule(t, 7)
	get := serve(t, s)
	full := period{0, s.Slices}
	cases := []struct {
		name    string
		q       query
		perturb func(a *wireAnswer)
		check   string
	}{
		{"grams off by a millionth of the budget", query{"attribution", methodGroundTruth, full, -1},
			func(a *wireAnswer) { a.Workloads[0].Grams += 1e-6 * a.Budget }, "oracle:"},
		{"fair-co2 answered with demand-proportional grams", query{"attribution", methodFairCO2, full, -1},
			func(a *wireAnswer) {
				other, _ := expect(methodDemand, s, full)
				for i := range a.Workloads {
					a.Workloads[i].Grams = other.grams[i]
				}
			}, "oracle:"},
		{"filtered answer for the wrong tenant", query{"attribution", methodRUP, full, 2},
			func(a *wireAnswer) { a.Workloads[0].ID = 3 }, "oracle:"},
		{"row missing", query{"billing", methodDemand, full, -1},
			func(a *wireAnswer) { a.Billing.Lines = a.Billing.Lines[1:] }, "oracle:"},
		{"share off", query{"share", methodFairCO2, full, 4},
			func(a *wireAnswer) { a.Shares[0].Share *= 1.001 }, "oracle:"},
		{"wrong period", query{"attribution", methodRUP, full, -1},
			func(a *wireAnswer) { a.Period.End-- }, "echo:"},
		{"wrong method", query{"share", methodRUP, full, -1},
			func(a *wireAnswer) { a.Method = methodFairCO2 }, "echo:"},
		{"budget not prorated", query{"attribution", methodDemand, period{1, s.Slices}, -1},
			func(a *wireAnswer) { a.Budget = budgetGrams }, "echo:"},
		{"grams not finite", query{"attribution", methodGroundTruth, full, -1},
			func(a *wireAnswer) { a.Workloads[1].Grams = math.NaN() }, "finite:"},
		{"grams infinite", query{"billing", methodGroundTruth, full, -1},
			func(a *wireAnswer) { a.Billing.Lines[1].Grams = math.Inf(1) }, "finite:"},
		{"grams negative", query{"attribution", methodFairCO2, full, -1},
			func(a *wireAnswer) { a.Workloads[2].Grams = -a.Workloads[2].Grams }, "nonneg:"},
		{"grams exceed the budget", query{"attribution", methodRUP, full, -1},
			func(a *wireAnswer) {
				for i := range a.Workloads {
					a.Workloads[i].Grams *= 1 + 1e-6
				}
			}, "efficiency:"},
		{"shares do not sum to one", query{"share", methodDemand, full, -1},
			func(a *wireAnswer) {
				for i := range a.Shares {
					a.Shares[i].Share *= 0.999
				}
			}, "shares:"},
		{"usd mispriced", query{"billing", methodFairCO2, full, -1},
			func(a *wireAnswer) { a.Billing.Lines[0].USD *= 1.01 }, "usd:"},
		{"price changed", query{"billing", methodRUP, full, 1},
			func(a *wireAnswer) { a.Billing.Price = 120 }, "usd:"},
		{"billing block missing", query{"billing", methodRUP, full, -1},
			func(a *wireAnswer) { a.Billing = nil }, "usd:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := expect(c.q.method, s, c.q.period)
			if err != nil {
				t.Fatal(err)
			}
			a := get(c.q)
			if problems := checkQuery(c.q, a, want); len(problems) > 0 {
				t.Fatalf("unperturbed answer fails: %v", problems)
			}
			c.perturb(a)
			problems := checkQuery(c.q, a, want)
			for _, p := range problems {
				if strings.HasPrefix(p, c.check) {
					return
				}
			}
			t.Fatalf("perturbed answer passed the %s check: %v", strings.TrimSuffix(c.check, ":"), problems)
		})
	}
}
