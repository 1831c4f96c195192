package attrserver

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// gatedMethod blocks inside Attribute until released, so a test can hold a
// computation open while concurrent queries pile up, then observe exactly
// how many computations the pile-up cost.
type gatedMethod struct {
	inner   attribution.Method
	started chan struct{} // closed when the first Attribute call begins
	release chan struct{} // Attribute blocks until this closes
	once    sync.Once
	calls   atomic.Int64
}

func newGatedMethod(inner attribution.Method) *gatedMethod {
	return &gatedMethod{
		inner:   inner,
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gatedMethod) Name() string { return "gated" }

func (g *gatedMethod) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	g.calls.Add(1)
	g.once.Do(func() { close(g.started) })
	<-g.release
	return g.inner.Attribute(s, budget)
}

// metricValue extracts one sample from Prometheus exposition text by its
// exact series name (including any label set).
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q: %v", series, val, err)
		}
		return f
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, exposition)
	return 0
}

// TestConcurrentIdenticalQueriesCoalesceToOneComputation is the service's
// load acceptance test: M concurrent identical queries cost exactly one
// Shapley computation, and a follow-up identical query costs zero.
func TestConcurrentIdenticalQueriesCoalesceToOneComputation(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.BatchWindow = 2 * time.Millisecond
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/attribution?method=gated&period=0:6"

	const m = 24
	bodies := make([]string, m)
	codes := make([]int, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i], codes[i] = string(b), resp.StatusCode
		}(i)
	}

	// The gate holds the single computation open while the other queries
	// arrive. Every late query counts toward coalesced_total the moment it
	// attaches (batch join or in-flight attach), so this poll converges
	// exactly when all m queries share the one computation.
	<-gated.started
	deadline := time.Now().Add(10 * time.Second)
	for srv.inst.Coalesced.Value() != m-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v after 10s, want %d", srv.inst.Coalesced.Value(), m-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	wg.Wait()

	for i := 0; i < m; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("query %d: status %d\n%s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("query %d body differs from query 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := gated.calls.Load(); got != 1 {
		t.Fatalf("underlying method ran %d times, want 1", got)
	}

	// Assert through the exposition, as external monitoring would see it.
	text := scrape(t, ts.URL+"/metrics")
	if got := metricValue(t, text, `fairco2_attrserver_computations_total{replica="0",method="gated"}`); got != 1 {
		t.Errorf("computations_total = %v, want 1", got)
	}
	if got := metricValue(t, text, `fairco2_attrserver_coalesced_total{replica="0"}`); got != m-1 {
		t.Errorf("coalesced_total = %v, want %d", got, m-1)
	}
	if got := metricValue(t, text, `fairco2_attrserver_cache_misses_total{replica="0"}`); got != m {
		t.Errorf("cache_misses_total = %v, want %d (every query raced the empty cache)", got, m)
	}

	// A repeat query is a pure cache hit: zero additional computations.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit query: status %d", resp.StatusCode)
	}
	text = scrape(t, ts.URL+"/metrics")
	if got := metricValue(t, text, `fairco2_attrserver_computations_total{replica="0",method="gated"}`); got != 1 {
		t.Errorf("computations_total after cache hit = %v, want still 1", got)
	}
	if got := metricValue(t, text, `fairco2_attrserver_cache_hits_total{replica="0"}`); got != 1 {
		t.Errorf("cache_hits_total = %v, want 1", got)
	}
	if got := gated.calls.Load(); got != 1 {
		t.Fatalf("cache-hit query re-ran the method: %d calls", got)
	}
}

// TestConcurrentMixedTenantsShareOneComputation checks the merge property
// the tenant-free cache key buys: different tenants querying the same
// period ride one attribution call.
func TestConcurrentMixedTenantsShareOneComputation(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.BatchWindow = 2 * time.Millisecond
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const perTenant = 3
	tenants := []string{"0", "1", "2", "3"}
	total := perTenant * len(tenants)
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/attribution?method=gated&period=0:6&tenant=" + tenant)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s: status %d", tenant, resp.StatusCode)
				}
			}(tenant)
		}
	}
	<-gated.started
	deadline := time.Now().Add(10 * time.Second)
	for srv.inst.Coalesced.Value() != float64(total-1) {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v after 10s, want %d", srv.inst.Coalesced.Value(), total-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	wg.Wait()
	if got := gated.calls.Load(); got != 1 {
		t.Fatalf("mixed-tenant queries ran %d computations, want 1", got)
	}
}

// TestLateMissServesCachedAnswer pins the second-generation batch: a
// query that misses while its key is being computed opens a new batch,
// and when that batch fires after the computation has cached its answer,
// it serves the cached answer (counted as coalesced, not as a second
// miss) instead of computing it again.
func TestLateMissServesCachedAnswer(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		// Long enough that the second batch fires well after the released
		// computation has cached its answer.
		c.BatchWindow = 100 * time.Millisecond
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/attribution?method=gated&period=0:6"

	bodies := make([]string, 2)
	var wg sync.WaitGroup
	get := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: status %d\n%s", i, resp.StatusCode, b)
			}
			bodies[i] = string(b)
		}()
	}
	get(0)
	<-gated.started // the first batch fired; its computation is held open
	get(1)
	// The second query misses the cache, then opens its own batch.
	deadline := time.Now().Add(10 * time.Second)
	for srv.inst.CacheMisses.Value() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("cache misses = %v after 10s, want 2", srv.inst.CacheMisses.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	wg.Wait()

	if bodies[1] != bodies[0] {
		t.Errorf("late query body differs:\n%s\nvs\n%s", bodies[1], bodies[0])
	}
	if got := gated.calls.Load(); got != 1 {
		t.Errorf("underlying method ran %d times, want 1", got)
	}
	text := scrape(t, ts.URL+"/metrics")
	for series, want := range map[string]float64{
		`fairco2_attrserver_computations_total{replica="0",method="gated"}`: 1,
		`fairco2_attrserver_coalesced_total{replica="0"}`:                   1,
		`fairco2_attrserver_cache_misses_total{replica="0"}`:                2,
		`fairco2_attrserver_cache_hits_total{replica="0"}`:                  0,
	} {
		if got := metricValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// scrape fetches a URL and returns its body as text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
