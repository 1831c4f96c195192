package attrserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"fairco2/internal/attribution"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// postDelta posts a delta request body and decodes the response (into a
// deltaResponse on 2xx, a map otherwise), returning the status code.
func postDelta(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/demand/delta", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding delta response: %v", err)
		}
	}
	return resp.StatusCode
}

func intp(v int) *int { return &v }

// directAttribution computes the full-window attribution for a method
// name the way the server's compute path does, on an explicit schedule.
func directAttribution(t *testing.T, method string, s *schedule.Schedule, budget units.GramsCO2e) []float64 {
	t.Helper()
	methods := map[string]attribution.Method{
		MethodGroundTruth:        attribution.GroundTruth{Parallelism: 1},
		MethodRUP:                attribution.RUPBaseline{},
		MethodDemandProportional: attribution.DemandProportional{},
		MethodFairCO2:            attribution.TemporalShapley{Parallelism: 1},
	}
	grams, err := methods[method].Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	return grams
}

func requireGramsBits(t *testing.T, label string, want []float64, got []workloadGrams) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d workloads, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != i {
			t.Fatalf("%s: workload %d has ID %d", label, i, got[i].ID)
		}
		if math.Float64bits(got[i].Grams) != math.Float64bits(want[i]) {
			t.Fatalf("%s: workload %d got %v (%#x), want %v (%#x)", label, i,
				got[i].Grams, math.Float64bits(got[i].Grams), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDeltaWhatIfMatchesFreshComputation pins the endpoint's core
// contract: a what-if answer is bitwise-identical to a fresh full-window
// attribution over the modified schedule, for every standard method.
func TestDeltaWhatIfMatchesFreshComputation(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	modified := testSchedule(t)
	modified.Workloads[1].Cores = 40
	if err := modified.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, method := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		var resp deltaResponse
		code := postDelta(t, ts.URL, deltaRequest{Tenant: 1, Cores: intp(40), Method: method}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", method, code)
		}
		if resp.Committed {
			t.Fatalf("%s: what-if reported committed", method)
		}
		want := directAttribution(t, method, modified, 1000)
		requireGramsBits(t, method, want, resp.Attribution)
		if resp.BudgetGrams != 1000 {
			t.Fatalf("%s: budget %v, want full window 1000", method, resp.BudgetGrams)
		}
	}
}

// TestDeltaStatsCounts checks the reported delta work per edit kind. A
// what-if patches only the engine its method reads: for ground-truth, one
// changed tenant out of n=4 re-evaluates exactly 2^4 - 2^3 = 8 coalitions
// over the table's 16 blocks; for fair-co2 the temporal counters cover the
// 8 top-level periods; rup and demand-proportional read neither engine. A
// commit patches both, since it warms every method's answer from them.
func TestDeltaStatsCounts(t *testing.T) {
	cases := []struct {
		name                        string
		method                      string
		commit                      bool
		coalitions, blocks, periods int
	}{
		{name: "whatif-ground-truth", method: MethodGroundTruth, coalitions: 8, blocks: 16},
		{name: "whatif-fair-co2", method: MethodFairCO2, periods: 8},
		{name: "whatif-rup", method: MethodRUP},
		{name: "whatif-demand-proportional", method: MethodDemandProportional},
		{name: "commit", method: MethodFairCO2, commit: true, coalitions: 8, blocks: 16, periods: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var resp deltaResponse
			req := deltaRequest{Tenant: 2, Cores: intp(9), Method: tc.method, Commit: tc.commit}
			if code := postDelta(t, ts.URL, req, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			d := resp.Delta
			if d.ShapleyCoalitions != tc.coalitions {
				t.Errorf("coalitions re-evaluated = %d, want %d", d.ShapleyCoalitions, tc.coalitions)
			}
			if got := d.ShapleyBlocksRecomputed + d.ShapleyBlocksSkipped; got != tc.blocks {
				t.Errorf("shapley blocks sum to %d, want %d", got, tc.blocks)
			}
			if got := d.PeriodsRecomputed + d.PeriodsSkipped; got != tc.periods {
				t.Errorf("temporal periods sum to %d, want %d", got, tc.periods)
			}
		})
	}
}

// deltaApplies reads fairco2_shapley_delta_applies_total, the count of
// coalition-table patches, from the process-wide registry.
func deltaApplies(t *testing.T) float64 {
	t.Helper()
	for _, f := range metrics.Default().Gather() {
		if f.Name == "fairco2_shapley_delta_applies_total" && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	t.Fatal("fairco2_shapley_delta_applies_total is not registered")
	return 0
}

// randomEdit draws a valid single-tenant change to s: new cores, a new
// start or a new duration.
func randomEdit(rng *rand.Rand, s *schedule.Schedule) deltaRequest {
	tenant := rng.Intn(len(s.Workloads))
	w := s.Workloads[tenant]
	req := deltaRequest{Tenant: tenant}
	switch rng.Intn(3) {
	case 0:
		choices := schedule.DefaultGeneratorConfig().CoreChoices
		req.Cores = intp(choices[rng.Intn(len(choices))])
	case 1:
		req.Start = intp(rng.Intn(s.Slices - w.Duration + 1))
	default:
		req.Duration = intp(1 + rng.Intn(s.Slices-w.Start))
	}
	return req
}

// applyEdit returns a copy of s with req's change installed.
func applyEdit(s *schedule.Schedule, req deltaRequest) *schedule.Schedule {
	c := cloneSchedule(s)
	w := &c.Workloads[req.Tenant]
	if req.Cores != nil {
		w.Cores = *req.Cores
	}
	if req.Start != nil {
		w.Start = *req.Start
	}
	if req.Duration != nil {
		w.Duration = *req.Duration
	}
	return c
}

// TestDeltaMixedMethodSequenceStaysBitwise interleaves what-ifs of every
// method with commits on a generated schedule. A what-if patches only the
// engine its method reads, so the other must stay in step with the
// committed schedule: every what-if answer, and every full-window GET
// after a commit, must equal a fresh computation bit for bit, and what-ifs
// that do not read the coalition table must not patch it.
func TestDeltaMixedMethodSequenceStaysBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = 12
	var committed *schedule.Schedule
	for committed == nil || len(committed.Workloads) < gen.MaxWorkloads {
		var err error
		if committed, err = schedule.Generate(gen, rng); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Schedule = cloneSchedule(committed)
		c.EnableDelta = true
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	methods := []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional}
	const whatifs, commitEvery = 240, 4
	for i, done := 0, 0; done < whatifs; i++ {
		req := randomEdit(rng, committed)
		req.Commit = i%(commitEvery+1) == commitEvery
		if req.Commit {
			req.Method = methods[rng.Intn(len(methods))]
		} else {
			req.Method = methods[done%len(methods)]
			done++
		}
		edited := applyEdit(committed, req)
		label := fmt.Sprintf("edit %d %s commit=%v", i, req.Method, req.Commit)

		before := deltaApplies(t)
		var resp deltaResponse
		if code := postDelta(t, ts.URL, req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", label, code)
		}
		requireGramsBits(t, label, directAttribution(t, req.Method, edited, 1000), resp.Attribution)
		wantPatches := 0.0
		switch {
		case req.Commit:
			wantPatches = 1
		case req.Method == MethodGroundTruth:
			wantPatches = 2 // apply and revert
		}
		if got := deltaApplies(t) - before; got != wantPatches {
			t.Fatalf("%s: %v coalition-table patches, want %v", label, got, wantPatches)
		}
		if !req.Commit {
			continue
		}
		committed = edited
		for _, m := range methods {
			var q queryResponse
			getJSON(t, ts.URL+"/v1/attribution?method="+m, &q)
			requireGramsBits(t, label+" then GET "+m, directAttribution(t, m, committed, 1000), q.Attribution)
		}
	}
}

// TestDeltaWhatIfLeavesStateIntact verifies the revert path: after a
// what-if, GET answers and the config fingerprint are those of the
// original schedule, and a repeated what-if returns identical bits.
func TestDeltaWhatIfLeavesStateIntact(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Fingerprint string `json:"config_fingerprint"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	before := health.Fingerprint

	var first, second deltaResponse
	req := deltaRequest{Tenant: 0, Cores: intp(3), Duration: intp(5), Method: MethodGroundTruth}
	if code := postDelta(t, ts.URL, req, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := postDelta(t, ts.URL, req, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i := range first.Attribution {
		if math.Float64bits(first.Attribution[i].Grams) != math.Float64bits(second.Attribution[i].Grams) {
			t.Fatalf("repeated what-if diverged at workload %d", i)
		}
	}

	getJSON(t, ts.URL+"/healthz", &health)
	if health.Fingerprint != before {
		t.Fatalf("what-if moved the fingerprint %s -> %s", before, health.Fingerprint)
	}
	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=ground-truth", &q)
	want := directAttribution(t, MethodGroundTruth, testSchedule(t), 1000)
	requireGramsBits(t, "post-what-if GET", want, q.Attribution)
}

// TestDeltaCommitSwapsStateAndWarmsCache verifies a commit: the serving
// schedule changes, the fingerprint moves, and the full-window cache is
// patched for every standard method so the next GETs recompute nothing.
func TestDeltaCommitSwapsStateAndWarmsCache(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Fingerprint string `json:"config_fingerprint"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	before := health.Fingerprint

	var resp deltaResponse
	req := deltaRequest{Tenant: 3, Cores: intp(48), Method: MethodFairCO2, Commit: true}
	if code := postDelta(t, ts.URL, req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Committed {
		t.Fatal("commit not acknowledged")
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Fingerprint == before {
		t.Fatal("commit did not move the fingerprint")
	}
	if health.Fingerprint != resp.Fingerprint {
		t.Fatalf("healthz fingerprint %s, delta response %s", health.Fingerprint, resp.Fingerprint)
	}

	committed := testSchedule(t)
	committed.Workloads[3].Cores = 48

	comps := func(m string) float64 { return srv.inst.Computations.With(m).Value() }
	for _, method := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		n := comps(method)
		var q queryResponse
		getJSON(t, ts.URL+"/v1/attribution?method="+method, &q)
		if got := comps(method); got != n {
			t.Fatalf("%s: full-window GET after commit recomputed (%v -> %v), want cache hit", method, n, got)
		}
		want := directAttribution(t, method, committed, 1000)
		requireGramsBits(t, method+" after commit", want, q.Attribution)
	}

	// Sub-window queries were not warmed: they must recompute against the
	// committed schedule, not serve stale pre-commit entries.
	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=rup&period=0:4", &q)
	sub, _, err := subSchedule(committed, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := directAttribution(t, MethodRUP, sub, units.GramsCO2e(1000*4.0/8.0))
	requireGramsBits(t, "sub-window after commit", want, q.Attribution)
}

// TestDeltaValidation exercises the 4xx paths, checking each rejected
// request leaves the engine and serving state untouched.
func TestDeltaValidation(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  deltaRequest
	}{
		{"tenant out of range", deltaRequest{Tenant: 7, Cores: intp(2)}},
		{"negative tenant", deltaRequest{Tenant: -1, Cores: intp(2)}},
		{"zero cores", deltaRequest{Tenant: 0, Cores: intp(0)}},
		{"zero duration", deltaRequest{Tenant: 0, Duration: intp(0)}},
		{"runs past window", deltaRequest{Tenant: 0, Start: intp(6), Duration: intp(4)}},
		{"unknown method", deltaRequest{Tenant: 0, Cores: intp(2), Method: "nope"}},
	}
	for _, tc := range cases {
		var errBody map[string]string
		if code := postDelta(t, ts.URL, tc.req, &errBody); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if errBody["error"] == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}

	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=ground-truth", &q)
	want := directAttribution(t, MethodGroundTruth, testSchedule(t), 1000)
	requireGramsBits(t, "after rejected deltas", want, q.Attribution)

	// Malformed JSON is a 400, not a decode panic or 500.
	resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestDeltaDisabled checks the zero-value Config leaves the endpoint off.
func TestDeltaDisabled(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader([]byte(`{"tenant":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled delta endpoint: status %d, want 404", resp.StatusCode)
	}
	var health struct {
		DeltaEnabled bool `json:"delta_enabled"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.DeltaEnabled {
		t.Fatal("healthz reports delta enabled on a zero-value config")
	}
}
