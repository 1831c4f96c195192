package attrserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// method with commits on a generated schedule: every what-if answer, and
// every full-window GET after a commit, must equal a fresh computation
// bit for bit.
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

		var resp deltaResponse
		if code := postDelta(t, ts.URL, req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", label, code)
		}
		requireGramsBits(t, label, directAttribution(t, req.Method, edited, 1000), resp.Attribution)
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

// TestDeltaWhatIfLeavesStateIntact verifies a what-if touches no serving
// state: after it, GET answers and the config fingerprint are those of
// the original schedule, and a repeated what-if returns identical bits.
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
// warmed for fair-co2, rup and demand-proportional, so their next GETs
// are hits. Ground truth, which costs 2^n, is computed on its first read.
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
		wantComps := 0.0
		if method == MethodGroundTruth {
			wantComps = 1
		}
		if got := comps(method) - n; got != wantComps {
			t.Fatalf("%s: full-window GET after commit ran %v computations, want %v", method, got, wantComps)
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
// request leaves the serving state untouched.
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

// TestNewRetainsNoCoalitionTable pins that a server keeps no 2^n state
// per replica: on a 20-workload schedule, New with the daemon's defaults
// must retain under 1 MiB of heap, where a resident exact-Shapley
// coalition table alone holds 2^20 x 8 B = 8 MiB.
func TestNewRetainsNoCoalitionTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedule = firstDraw(t, 20, 0)
	cfg.Budget = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv, err := New(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 1<<20 {
		t.Fatalf("New retained %d bytes of heap, want under 1 MiB", retained)
	}
}

// TestDeltaConcurrentWhatIfsAndCommits runs lock-free what-ifs against a
// stream of commits, for the race detector. Every what-if must answer 200
// and sum to its budget; once the 20 commits land, the fingerprint and
// every method's full-window GET must be those of the schedule with all
// of them applied.
func TestDeltaConcurrentWhatIfsAndCommits(t *testing.T) {
	sched := firstDraw(t, 20, 0)
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Schedule = cloneSchedule(sched)
		c.EnableDelta = true
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(req deltaRequest) (deltaResponse, error) {
		var resp deltaResponse
		raw, err := json.Marshal(req)
		if err != nil {
			return resp, err
		}
		r, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader(raw))
		if err != nil {
			return resp, err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return resp, fmt.Errorf("status %d", r.StatusCode)
		}
		return resp, json.NewDecoder(r.Body).Decode(&resp)
	}

	choices := schedule.DefaultGeneratorConfig().CoreChoices
	want := cloneSchedule(sched)
	commits := make([]deltaRequest, len(want.Workloads))
	for i := range commits {
		cores := choices[(i+1)%len(choices)]
		if cores == want.Workloads[i].Cores {
			cores = choices[i%len(choices)]
		}
		commits[i] = deltaRequest{Tenant: i, Cores: intp(cores), Commit: true}
		want = applyEdit(want, commits[i])
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, req := range commits {
			if _, err := post(req); err != nil {
				t.Errorf("commit tenant %d: %v", req.Tenant, err)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			methods := []string{MethodFairCO2, MethodRUP}
			// Each sender overlaps the commits with at least minWhatIfs
			// what-ifs, then keeps on until the commits are done.
			const minWhatIfs = 10
			for i := 0; ; i++ {
				if i >= minWhatIfs {
					select {
					case <-done:
						return
					default:
					}
				}
				req := deltaRequest{Tenant: rng.Intn(len(sched.Workloads)), Cores: intp(choices[rng.Intn(len(choices))]), Method: methods[i%2]}
				resp, err := post(req)
				if err != nil {
					t.Errorf("what-if %+v: %v", req, err)
					return
				}
				sum := 0.0
				for _, w := range resp.Attribution {
					sum += w.Grams
				}
				if math.Abs(sum-resp.BudgetGrams) > invariantTol*resp.BudgetGrams {
					t.Errorf("what-if %+v: attributed %v of %v", req, sum, resp.BudgetGrams)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got, wantFP := srv.Fingerprint(), configFingerprint(want, 1000); got != wantFP {
		t.Fatalf("fingerprint %08x after the commits, want %08x", got, wantFP)
	}
	for _, m := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		var q queryResponse
		if code := getJSON(t, ts.URL+"/v1/attribution?method="+m, &q); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", m, code)
		}
		requireGramsBits(t, "GET "+m+" after the commits", directAttribution(t, m, want, 1000), q.Attribution)
	}
}

// offByOne attributes like RUP but hands out one gram more than the
// budget, breaking efficiency.
type offByOne struct{}

func (offByOne) Name() string { return "off-by-one" }

func (offByOne) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	grams, err := attribution.RUPBaseline{}.Attribute(s, budget)
	if err == nil {
		grams[0]++
	}
	return grams, err
}

// TestInvariantGateRefusesAnswers overrides rup with a method whose
// answers overshoot the budget: each GET must answer 500, count one
// violation and compute again, since nothing was cached. The delta
// endpoint runs the standard rup and is unaffected.
func TestInvariantGateRefusesAnswers(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.EnableDelta = true
		c.Methods = map[string]attribution.Method{MethodRUP: offByOne{}}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	violations := srv.inst.InvariantViolations.With(MethodRUP)
	comps := srv.inst.Computations.With(MethodRUP)
	for i := 1; i <= 2; i++ {
		var body map[string]string
		if code := getJSON(t, ts.URL+"/v1/attribution?method=rup", &body); code != http.StatusInternalServerError {
			t.Fatalf("GET %d: status %d, want 500", i, code)
		}
		if body["error"] == "" {
			t.Fatalf("GET %d: empty error body", i)
		}
		if got := violations.Value(); got != float64(i) {
			t.Fatalf("after GET %d: %v invariant violations, want %d", i, got, i)
		}
		if got := comps.Value(); got != float64(i) {
			t.Fatalf("after GET %d: %v computations, want %d (a refused answer is not cached)", i, got, i)
		}
	}

	var resp deltaResponse
	if code := postDelta(t, ts.URL, deltaRequest{Tenant: 1, Cores: intp(40), Method: MethodRUP}, &resp); code != http.StatusOK {
		t.Fatalf("what-if: status %d", code)
	}
	modified := applyEdit(testSchedule(t), deltaRequest{Tenant: 1, Cores: intp(40)})
	requireGramsBits(t, "what-if", directAttribution(t, MethodRUP, modified, 1000), resp.Attribution)
}

// TestInvariantGatePassDoesNotAllocate pins the gate's cost on the path
// every served answer takes.
func TestInvariantGatePassDoesNotAllocate(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ans, err := srv.fullWindow(MethodFairCO2, testSchedule(t))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := srv.gate(ans); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("gate allocated %v times per passing answer, want 0", allocs)
	}
}

// TestDeltaGroundTruthWhatIfsShareOneSlot: ground-truth what-ifs run one
// at a time per server, since each builds its own 2^n coalition table.
// With the slot held, a ground-truth what-if whose request deadline is
// 50 ms answers 504 like a timed-out GET, a fair-co2 what-if still
// answers 200, and once the slot frees concurrent ground-truth what-ifs
// all run, one after another.
func TestDeltaGroundTruthWhatIfsShareOneSlot(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	h := srv.Handler()
	whatif := func(method string, deadline time.Duration) int {
		t.Helper()
		body := fmt.Sprintf(`{"tenant":0,"cores":3,"method":%q}`, method)
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/demand/delta", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	srv.groundTruth <- struct{}{}
	if code := whatif(MethodGroundTruth, 50*time.Millisecond); code != http.StatusGatewayTimeout {
		t.Errorf("ground-truth what-if with the slot held: status %d, want 504", code)
	}
	if code := whatif(MethodFairCO2, 50*time.Millisecond); code != http.StatusOK {
		t.Errorf("fair-co2 what-if with the ground-truth slot held: status %d, want 200", code)
	}
	<-srv.groundTruth
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := whatif(MethodGroundTruth, 10*time.Second); code != http.StatusOK {
				t.Errorf("concurrent ground-truth what-if with the slot free: status %d, want 200", code)
			}
		}()
	}
	wg.Wait()
	if len(srv.groundTruth) != 0 {
		t.Error("a finished ground-truth what-if kept the slot")
	}
}
