package clusterserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

// newOracle starts a single-process attrserver configured identically to
// the fleet's replicas. It is the ground truth the differential suite
// compares every routed answer against.
func newOracle(t *testing.T, sched *schedule.Schedule) (*attrserver.Server, *httptest.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = sched
	cfg.Budget = 1e6
	cfg.Parallelism = 1
	cfg.BatchWindow = 0
	cfg.Replica = "oracle"
	srv, err := attrserver.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

// fetchJSON GETs url and decodes the body.
func fetchJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp.StatusCode, out
}

// stripVolatile removes the only legitimately differing field: the
// wall-clock computation timestamp.
func stripVolatile(m map[string]any) map[string]any {
	delete(m, "computed_at")
	return m
}

// bitwiseEqual deep-compares two decoded JSON documents, requiring exact
// Float64bits equality on every number. encoding/json round-trips float64
// bitwise, so any divergence here is a real divergence in the computed
// attribution, not serialization noise.
func bitwiseEqual(t *testing.T, path string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %T, want object", path, got)
			return
		}
		if len(g) != len(w) {
			t.Errorf("%s: got %d keys %v, want %d keys %v", path, len(g), keys(g), len(w), keys(w))
			return
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s: missing key %q", path, k)
				continue
			}
			bitwiseEqual(t, path+"."+k, gv, wv)
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			t.Errorf("%s: got %T, want array", path, got)
			return
		}
		if len(g) != len(w) {
			t.Errorf("%s: got %d elements, want %d", path, len(g), len(w))
			return
		}
		for i := range w {
			bitwiseEqual(t, fmt.Sprintf("%s[%d]", path, i), g[i], w[i])
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			t.Errorf("%s: got %T (%v), want number", path, got, got)
			return
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %v (0x%016x) != oracle %v (0x%016x)", path, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	default:
		if got != want {
			t.Errorf("%s: %v != oracle %v", path, got, want)
		}
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

var diffMethods = []string{
	attrserver.MethodGroundTruth,
	attrserver.MethodRUP,
	attrserver.MethodDemandProportional,
	attrserver.MethodFairCO2,
}

// TestDifferentialQueriesMatchOracle routes every (method, period,
// tenant, endpoint) combination through a 3-replica cluster — rotating
// the entry replica so forwarding is exercised from every side — and
// requires the answer to be bitwise-identical to a single-process
// attrserver. It also pins cluster-wide dedup: 180 routed requests
// resolve to exactly one computation per unique computation key.
func TestDifferentialQueriesMatchOracle(t *testing.T) {
	sched := FleetSchedule(16)
	f := startTestFleet(t, FleetConfig{Replicas: 3, Schedule: sched})
	_, oracle, oreg := newOracle(t, sched)

	periods := []string{"0:16", "0:8", "4:12", "8:16", "2:6"}
	tenants := []string{"", "0", "2"}
	endpoints := []string{"/v1/attribution", "/v1/share", "/v1/billing"}

	requests := 0
	for _, m := range diffMethods {
		for _, p := range periods {
			for _, tn := range tenants {
				for _, ep := range endpoints {
					path := fmt.Sprintf("%s?method=%s&period=%s", ep, m, p)
					if tn != "" {
						path += "&tenant=" + tn
					}
					entry := f.URLs[requests%len(f.URLs)]
					requests++
					gotStatus, got := fetchJSON(t, entry+path)
					wantStatus, want := fetchJSON(t, oracle.URL+path)
					if gotStatus != wantStatus {
						t.Errorf("%s: cluster status %d, oracle %d", path, gotStatus, wantStatus)
						continue
					}
					bitwiseEqual(t, path, stripVolatile(got), stripVolatile(want))
				}
			}
		}
	}

	// Tenant filtering and the three render endpoints all share one
	// cached computation, so the cluster computed each (method, period)
	// exactly once — across all replicas.
	unique := float64(len(diffMethods) * len(periods))
	if got := f.FamilyTotal("fairco2_attrserver_computations_total"); got != unique {
		t.Errorf("cluster computations = %v over %d requests, want %v (one per unique key)", got, requests, unique)
	}
	var oracleComps float64
	for _, fam := range oreg.Gather() {
		if fam.Name == "fairco2_attrserver_computations_total" {
			for _, s := range fam.Samples {
				oracleComps += s.Value
			}
		}
	}
	if oracleComps != unique {
		t.Errorf("oracle computations = %v, want %v", oracleComps, unique)
	}
}

// TestDifferentialDeltaMatchesOracle mirrors a what-if and a commit on
// the cluster (entering through non-owner replicas) and the oracle, and
// requires bitwise-identical responses. After the commit, full-window
// reads on every method must equal the oracle bitwise; fair-co2, rup and
// demand-proportional come from the commit-warmed caches, and ground
// truth costs one computation cluster-wide, at its key's owner.
func TestDifferentialDeltaMatchesOracle(t *testing.T) {
	sched := FleetSchedule(16)
	f := startTestFleet(t, FleetConfig{Replicas: 3, Schedule: sched})
	_, oracle, _ := newOracle(t, sched)

	post := func(t *testing.T, base string, body map[string]any) (int, map[string]any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/demand/delta", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]any{}
		dec, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(dec, &out); err != nil {
			t.Fatalf("decoding %q: %v", dec, err)
		}
		return resp.StatusCode, out
	}

	whatIf := map[string]any{"tenant": 1, "cores": 5}
	gs, got := post(t, f.URLs[0], whatIf)
	ws, want := post(t, oracle.URL, whatIf)
	if gs != http.StatusOK || ws != http.StatusOK {
		t.Fatalf("what-if: cluster %d, oracle %d", gs, ws)
	}
	bitwiseEqual(t, "what-if", stripVolatile(got), stripVolatile(want))

	commit := map[string]any{"tenant": 1, "cores": 5, "commit": true}
	gs, got = post(t, f.URLs[2], commit)
	ws, want = post(t, oracle.URL, commit)
	if gs != http.StatusOK || ws != http.StatusOK {
		t.Fatalf("commit: cluster %d, oracle %d", gs, ws)
	}
	bitwiseEqual(t, "commit", stripVolatile(got), stripVolatile(want))
	for i, srv := range f.Srvs {
		if srv.Fingerprint() != f.Srvs[0].Fingerprint() {
			t.Fatalf("replica %d fingerprint diverged after commit", i)
		}
	}

	before := f.FamilyTotal("fairco2_attrserver_computations_total")
	gtKey := fmt.Sprintf("cfg=%08x/m=%s/p=0:16", f.Srvs[0].Fingerprint(), attrserver.MethodGroundTruth)
	owner := f.Nodes[0].ActiveRing().Lookup(gtKey)
	ownerBefore := replicaComputations(f.Reg, owner)
	for i, m := range diffMethods {
		for _, ep := range []string{"/v1/attribution", "/v1/share", "/v1/billing"} {
			path := fmt.Sprintf("%s?method=%s&period=0:16", ep, m)
			gotStatus, got := fetchJSON(t, f.URLs[i%len(f.URLs)]+path)
			wantStatus, want := fetchJSON(t, oracle.URL+path)
			if gotStatus != wantStatus {
				t.Errorf("post-commit %s: cluster status %d, oracle %d", path, gotStatus, wantStatus)
				continue
			}
			bitwiseEqual(t, "post-commit "+path, stripVolatile(got), stripVolatile(want))
		}
	}
	if got := f.FamilyTotal("fairco2_attrserver_computations_total") - before; got != 1 {
		t.Errorf("post-commit reads computed %v new results, want 1 (ground truth)", got)
	}
	if got := replicaComputations(f.Reg, owner) - ownerBefore; got != 1 {
		t.Errorf("ground-truth owner %s computed %v post-commit results, want 1", owner, got)
	}
}

// replicaComputations sums one replica's computations_total over methods.
func replicaComputations(reg *metrics.Registry, replica string) float64 {
	total := 0.0
	for _, fam := range reg.Gather() {
		if fam.Name != "fairco2_attrserver_computations_total" {
			continue
		}
		for _, s := range fam.Samples {
			if s.LabelValues[0] == replica {
				total += s.Value
			}
		}
	}
	return total
}
