package attrserver

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fairco2/internal/schedule"
)

// serveRecorded runs one request through h without sockets and requires
// a 200.
func serveRecorded(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
	}
	return rec
}

// TestCommitToCollidingConfigurationRecomputes: two valid configurations
// the public API reaches share a 32-bit config fingerprint. A server on A
// that answered a query and then committed its way to B must answer that
// query for B, as a fresh server on B does, and not serve A's answer: each
// schedule generation owns its cache, so no answer outlives the
// configuration it was computed for.
func TestCommitToCollidingConfigurationRecomputes(t *testing.T) {
	base := firstDraw(t, 12, 0)
	choices := schedule.DefaultGeneratorConfig().CoreChoices
	withCores := func(idx []int) *schedule.Schedule {
		s := cloneSchedule(base)
		for i, c := range idx {
			s.Workloads[i].Cores = choices[c]
		}
		return s
	}
	a := withCores([]int{1, 0, 1, 2, 4, 2, 5, 0, 5, 0, 0, 4})
	b := withCores([]int{6, 6, 5, 4, 0, 6, 4, 0, 0, 6, 3, 2})
	if fa, fb := configFingerprint(a, 1000), configFingerprint(b, 1000); fa != fb {
		t.Fatalf("fingerprints %08x and %08x differ: this test needs a pair that collides under configFingerprint", fa, fb)
	}

	const query = "/v1/attribution?method=rup&period=0:2"
	workloads := func(rec *httptest.ResponseRecorder) []workloadGrams {
		var q queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			t.Fatal(err)
		}
		return q.Attribution
	}
	h := drawServer(t, a).Handler()
	before := workloads(serveRecorded(t, h, http.MethodGet, query, ""))
	commits := 0
	for i, w := range b.Workloads {
		if w.Cores != a.Workloads[i].Cores {
			serveRecorded(t, h, http.MethodPost, "/v1/demand/delta", fmt.Sprintf(`{"tenant":%d,"cores":%d,"commit":true}`, i, w.Cores))
			commits++
		}
	}
	if commits != 11 {
		t.Fatalf("A and B differ in %d workloads' cores, want 11", commits)
	}
	got := workloads(serveRecorded(t, h, http.MethodGet, query, ""))
	want := workloads(serveRecorded(t, drawServer(t, b).Handler(), http.MethodGet, query, ""))
	same := func(x, y []workloadGrams) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].ID != y[i].ID || math.Float64bits(x[i].Grams) != math.Float64bits(y[i].Grams) {
				return false
			}
		}
		return true
	}
	if same(before, want) {
		t.Fatal("A and B answer the query alike: the test cannot tell a stale answer from a fresh one")
	}
	if !same(got, want) {
		t.Fatalf("after committing B the server answers %v, want B's %v (A's answer was %v)", got, want, before)
	}
}

// TestCommitsKeepOneGeneration: with every (method, period) key of a
// schedule cached, each commit starts a fresh cache warmed with its own
// full-window answers, so after 30 commits /healthz counts only what the
// last commit warmed.
func TestCommitsKeepOneGeneration(t *testing.T) {
	sched := firstDraw(t, 12, 7)
	h := drawServer(t, sched).Handler()
	health := func() (entries int, bytes int64) {
		var hz struct {
			Cache struct {
				Entries int   `json:"entries"`
				Bytes   int64 `json:"bytes"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(serveRecorded(t, h, http.MethodGet, "/healthz", "").Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		return hz.Cache.Entries, hz.Cache.Bytes
	}

	keys := 0
	for _, m := range []string{MethodGroundTruth, MethodFairCO2, MethodRUP, MethodDemandProportional} {
		for start := 0; start < sched.Slices; start++ {
			for end := start + 1; end <= sched.Slices; end++ {
				if _, _, err := subSchedule(sched, start, end); err != nil {
					continue // an idle period answers 400 and caches nothing
				}
				serveRecorded(t, h, http.MethodGet, fmt.Sprintf("/v1/attribution?method=%s&period=%d:%d", m, start, end), "")
				keys++
			}
		}
	}
	if entries, _ := health(); entries != keys {
		t.Fatalf("%d entries cached after sweeping %d (method, period) keys", entries, keys)
	}

	// Each commit sets a core count no configuration had before, and warms
	// four full-window answers: its own ground truth and the cheap three.
	for i := 0; i < 30; i++ {
		serveRecorded(t, h, http.MethodPost, "/v1/demand/delta",
			fmt.Sprintf(`{"tenant":%d,"cores":%d,"method":%q,"commit":true}`, i%len(sched.Workloads), 100+i, MethodGroundTruth))
	}
	if entries, bytes := health(); entries != 4 || bytes <= 0 {
		t.Fatalf("/healthz cache after 30 commits: %d entries, %d bytes; want the last commit's 4", entries, bytes)
	}
}
