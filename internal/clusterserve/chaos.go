package clusterserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/resilience/faultserver"
	"fairco2/internal/schedule"
)

// This file is the chaos harness: RunChaos drives an in-process fleet
// through a scripted fault timeline — kill one replica mid-load, latency-
// spike another, restart the victim — while closed-loop query load and a
// sequential commit stream keep running. The stream ends with one last
// commit per tenant while the spike holds the flapped replica Down, so
// those commits reach it only by re-send. It then waits for the cluster to
// converge and differentially compares every replica's answers against a
// single-process oracle that applied the same commits. The chaos test
// suite asserts on the report under -race; cmd/cluster-chaos renders it
// for results/cluster_chaos.txt.

// ChaosConfig scripts one chaos run. Zero values select the defaults.
type ChaosConfig struct {
	// Replicas is the fleet size (default 3).
	Replicas int
	// Slices is the schedule size (default 16).
	Slices int
	// Duration is how long the query load runs (default 3s).
	Duration time.Duration
	// Workers is the load concurrency (default 6).
	Workers int
	// Victim is the replica killed mid-load and later restarted
	// (default 1).
	Victim int
	// KillAt and RestartAt place the kill and the restart on the load
	// timeline (defaults Duration/4 and Duration/2).
	KillAt    time.Duration
	RestartAt time.Duration
	// Flap, when >= 0, names a replica whose fault gate gets a sticky
	// latency spike from RestartAt until RestartAt+Duration/6, long
	// enough past the probe timeout that probers evict and then readmit
	// it (default 2; -1 disables). The commit stream ends inside the
	// spike, once every other replica holds the flapped one Down.
	Flap int
	// FlapDelay is the injected latency (default 4x the probe timeout).
	FlapDelay time.Duration
	// CommitEvery paces the sequential commit stream (default 25ms). The
	// stream runs until the flapped replica is held Down, or until the
	// load ends when no replica flaps.
	CommitEvery time.Duration
	// Probe and Hedge tune the self-healing layer; the defaults are a
	// fast probe clock (40ms interval) so eviction and rejoin fit the
	// run.
	Probe ProbeConfig
	Hedge HedgeConfig
	// Admission applies at every replica (default: 2000 req/s per
	// tenant, burst 200 — high enough that shed stays a budget, not a
	// wall).
	Admission AdmissionConfig
	// ConvergeTimeout bounds the post-load wait for full recovery
	// (default 15s).
	ConvergeTimeout time.Duration
	// Logf, when set, narrates the timeline (e.g. t.Logf or log.Printf).
	Logf func(format string, args ...any)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Replicas < 2 {
		c.Replicas = 3
	}
	if c.Slices == 0 {
		c.Slices = 16
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Workers < 1 {
		c.Workers = 6
	}
	if c.Victim <= 0 || c.Victim >= c.Replicas {
		// Replica 0 is not selectable: zero is the unset value. The load
		// and differential logic do not care which replica dies, so the
		// restriction costs nothing.
		c.Victim = 1 % c.Replicas
	}
	if c.KillAt <= 0 {
		c.KillAt = c.Duration / 4
	}
	if c.RestartAt <= 0 {
		c.RestartAt = c.Duration / 2
	}
	if c.Flap == 0 {
		c.Flap = 2
	}
	if c.Flap >= c.Replicas || c.Flap == c.Victim {
		c.Flap = -1
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 25 * time.Millisecond
	}
	if c.Probe.Interval == 0 {
		c.Probe.Interval = 40 * time.Millisecond
	}
	c.Probe = c.Probe.withDefaults()
	if c.FlapDelay <= 0 {
		c.FlapDelay = 4 * c.Probe.Timeout
	}
	if c.Admission.Rate == 0 {
		c.Admission.Rate = 2000
		c.Admission.Burst = 200
	}
	if c.ConvergeTimeout <= 0 {
		c.ConvergeTimeout = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Config ChaosConfig `json:"-"`
	// Load is the closed-loop query load summary. Errors must be zero:
	// every request either completed or was shed-and-retried.
	Load LoadStats
	// Commits is how many sequential commits landed; CommitErrors counts
	// commit attempts that failed outright (must be zero).
	Commits      int
	CommitErrors int
	// Evicted reports whether every surviving replica marked the victim
	// Down, and EvictedIn how long after the kill the last one did.
	Evicted   bool
	EvictedIn time.Duration
	// Converged reports whether, after the restart, every replica
	// reached the same schedule fingerprint with all peers Up, within
	// ConvergeTimeout of load end; ConvergedIn is the wait.
	Converged   bool
	ConvergedIn time.Duration
	// SyncReplayed / Hedges / Failovers / Transitions are the fleet-wide
	// self-healing counters after the run.
	SyncReplayed float64
	Hedges       float64
	Failovers    float64
	Transitions  float64
	// Compared counts differential queries checked against the oracle;
	// Mismatches lists every deviation (must be empty).
	Compared   int
	Mismatches []string
}

// Passed reports whether the run met the chaos acceptance bar: no lost
// requests beyond shed-and-retry, eviction observed, full convergence,
// and bitwise-identical answers.
func (r *ChaosReport) Passed() bool {
	return r.Load.Errors == 0 && r.CommitErrors == 0 &&
		r.Evicted && r.Converged && len(r.Mismatches) == 0
}

// String renders the report for results/cluster_chaos.txt.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run: %d replicas, victim %d, load %v x %d workers\n",
		r.Config.Replicas, r.Config.Victim, r.Config.Duration, r.Config.Workers)
	fmt.Fprintf(&b, "  queries: %d done, %d shed-and-retried, %d errors (%.0f req/s)\n",
		r.Load.Done, r.Load.Shed, r.Load.Errors, r.Load.Throughput())
	fmt.Fprintf(&b, "  commits: %d landed, %d failed\n", r.Commits, r.CommitErrors)
	fmt.Fprintf(&b, "  eviction: observed=%v in %v after kill\n", r.Evicted, r.EvictedIn.Round(time.Millisecond))
	fmt.Fprintf(&b, "  convergence: reached=%v in %v after load end\n", r.Converged, r.ConvergedIn.Round(time.Millisecond))
	fmt.Fprintf(&b, "  self-healing: %.0f transitions, %.0f hedges, %.0f failovers, %.0f commits replayed\n",
		r.Transitions, r.Hedges, r.Failovers, r.SyncReplayed)
	fmt.Fprintf(&b, "  differential: %d queries vs oracle, %d mismatches\n", r.Compared, len(r.Mismatches))
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "    MISMATCH %s\n", m)
	}
	fmt.Fprintf(&b, "  verdict: passed=%v\n", r.Passed())
	return b.String()
}

var chaosMethods = []string{
	attrserver.MethodGroundTruth,
	attrserver.MethodRUP,
	attrserver.MethodDemandProportional,
	attrserver.MethodFairCO2,
}

// RunChaos executes the scripted fault timeline against a fresh fleet and
// returns the report. The error covers only harness failures (a replica
// that cannot restart); scenario outcomes land in the report.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	rep := &ChaosReport{Config: cfg}
	sched := FleetSchedule(cfg.Slices)

	f, err := StartFleet(FleetConfig{
		Replicas:  cfg.Replicas,
		Schedule:  sched,
		Admission: cfg.Admission,
		SelfHeal:  true,
		Probe:     cfg.Probe,
		Hedge:     cfg.Hedge,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Load enters only through survivors: a real front-end load balancer
	// stops sending to a dead backend; what the harness must prove is
	// that requests routed *through* live replicas to the dead owner's
	// ring segment still complete.
	entries := make([]string, 0, cfg.Replicas-1)
	for i, u := range f.URLs {
		if i != cfg.Victim {
			entries = append(entries, u)
		}
	}
	periods := DistinctPeriods(cfg.Slices, 24)
	victimID := f.IDs[cfg.Victim]

	// Sequential commit stream: one goroutine, each commit acknowledged
	// before the next is issued, so the per-tenant ordering the oracle
	// replays is exactly the issue order. endCommits stops it, then
	// commits once more per tenant, to core counts the stream never sets,
	// so the final configuration differs from every earlier one and a
	// replica that misses one of these commits cannot converge by chance.
	// They enter through replica 0, which is never the victim or the
	// flapped replica.
	commitStop := make(chan struct{})
	commitDone := make(chan struct{})
	var commitBodies [][]byte
	commit := func(entry string, tenant, cores int) {
		body := []byte(fmt.Sprintf(`{"tenant":%d,"cores":%d,"commit":true}`, tenant, cores))
		if chaosCommit(entry, body) {
			commitBodies = append(commitBodies, body)
			rep.Commits++
		} else {
			rep.CommitErrors++
		}
	}
	go func() {
		defer close(commitDone)
		t := time.NewTicker(cfg.CommitEvery)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-commitStop:
				return
			case <-t.C:
			}
			commit(entries[i%len(entries)], i%4, 1+(i*3)%8)
		}
	}()
	endCommits := sync.OnceFunc(func() {
		close(commitStop)
		<-commitDone
		for tenant := 0; tenant < 4; tenant++ {
			commit(f.URLs[0], tenant, 9+tenant)
		}
	})

	// Fault timeline.
	timelineDone := make(chan struct{})
	var restartErr error
	go func() {
		defer close(timelineDone)
		time.Sleep(cfg.KillAt)
		cfg.Logf("chaos: killing replica %s", victimID)
		f.CloseReplica(cfg.Victim)
		killed := time.Now()

		// Wait for every survivor's prober to evict the victim.
		evictBound := cfg.RestartAt - cfg.KillAt
		for time.Since(killed) < evictBound {
			if heldDown(f, cfg.Victim) {
				rep.Evicted = true
				rep.EvictedIn = time.Since(killed)
				cfg.Logf("chaos: victim evicted everywhere in %v", rep.EvictedIn)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		if cfg.Flap >= 0 {
			cfg.Logf("chaos: latency-spiking replica %s by %v", f.IDs[cfg.Flap], cfg.FlapDelay)
			f.Gates[cfg.Flap].Program(faultserver.Step{Delay: cfg.FlapDelay, Sticky: true})
		}
		if rest := cfg.RestartAt - cfg.KillAt - time.Since(killed); rest > 0 {
			time.Sleep(rest)
		}
		cfg.Logf("chaos: restarting replica %s", victimID)
		if err := f.RestartReplica(cfg.Victim); err != nil {
			restartErr = err
			return
		}
		if cfg.Flap >= 0 {
			clearAt := time.Now().Add(cfg.Duration / 6)
			for time.Now().Before(clearAt) && !heldDown(f, cfg.Flap) {
				time.Sleep(2 * time.Millisecond)
			}
			cfg.Logf("chaos: replica %s held down everywhere: %v; ending the commit stream", f.IDs[cfg.Flap], heldDown(f, cfg.Flap))
			endCommits()
			time.Sleep(time.Until(clearAt))
			f.Gates[cfg.Flap].Clear()
			cfg.Logf("chaos: latency spike cleared on replica %s", f.IDs[cfg.Flap])
		}
	}()

	rep.Load = RunLoad(LoadConfig{
		Entries:  entries,
		Workers:  cfg.Workers,
		Duration: cfg.Duration,
		Path: func(seq int) string {
			return "/v1/attribution?method=" + chaosMethods[seq%len(chaosMethods)] +
				"&period=" + periods[seq%len(periods)]
		},
		Header: func(seq int) http.Header {
			h := http.Header{}
			h.Set(HeaderTenant, "load-"+strconv.Itoa(seq%4))
			return h
		},
	})
	endCommits()
	<-timelineDone
	if restartErr != nil {
		return rep, restartErr
	}

	// Convergence: every replica at the same fingerprint, every prober
	// seeing every peer Up.
	waitStart := time.Now()
	for time.Since(waitStart) < cfg.ConvergeTimeout {
		if chaosConverged(f) {
			rep.Converged = true
			rep.ConvergedIn = time.Since(waitStart)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cfg.Logf("chaos: converged=%v in %v", rep.Converged, rep.ConvergedIn)

	rep.SyncReplayed = f.FamilyTotal("fairco2_cluster_sync_replayed_total")
	rep.Hedges = f.FamilyTotal("fairco2_cluster_hedges_total")
	rep.Failovers = f.FamilyTotal("fairco2_cluster_failovers_total")
	rep.Transitions = f.FamilyTotal("fairco2_cluster_transitions_total")

	// Differential pass: a single-process oracle applies the same commit
	// sequence, then every replica must answer bitwise-identically.
	oracle, err := chaosOracle(sched, commitBodies)
	if err != nil {
		return rep, err
	}
	defer oracle.Close()
	for qi := 0; qi < len(chaosMethods)*len(periods); qi++ {
		path := "/v1/attribution?method=" + chaosMethods[qi%len(chaosMethods)] +
			"&period=" + periods[qi%len(periods)]
		want, werr := chaosFetch(oracle.URL + path)
		for i := range f.URLs {
			got, gerr := chaosFetch(f.URLs[i] + path)
			rep.Compared++
			if gerr != nil || werr != nil {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s replica %d: fetch: %v / oracle: %v", path, i, gerr, werr))
				continue
			}
			diffJSON(fmt.Sprintf("%s replica %d", path, i), got, want, &rep.Mismatches)
		}
	}
	return rep, nil
}

// heldDown reports whether every replica but i holds replica i Down.
func heldDown(f *Fleet, i int) bool {
	for j, n := range f.Nodes {
		if j != i && n.MemberStates()[f.IDs[i]] != MemberDown {
			return false
		}
	}
	return true
}

// chaosCommit posts one commit, honoring 429 back-pressure, and reports
// whether it landed with a 200.
func chaosCommit(entry string, body []byte) bool {
	for {
		resp, err := http.Post(entry+"/v1/demand/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		wait := retryWait(resp, 2*time.Millisecond)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return true
		case http.StatusTooManyRequests:
			time.Sleep(wait)
		default:
			return false
		}
	}
}

// chaosConverged checks fleet-wide recovery: identical schedule
// fingerprints and all-Up membership everywhere.
func chaosConverged(f *Fleet) bool {
	fp := f.Srvs[0].Fingerprint()
	for _, s := range f.Srvs[1:] {
		if s.Fingerprint() != fp {
			return false
		}
	}
	for _, n := range f.Nodes {
		for _, st := range n.MemberStates() {
			if st != MemberUp {
				return false
			}
		}
	}
	return true
}

// chaosOracle builds the single-process ground truth: a fresh attrserver
// on the fleet's base schedule with the recorded commit sequence applied
// in issue order.
func chaosOracle(sched *schedule.Schedule, bodies [][]byte) (*httptest.Server, error) {
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = sched
	cfg.Budget = 1e6
	cfg.Parallelism = 1
	cfg.BatchWindow = 0
	cfg.Replica = "oracle"
	srv, err := attrserver.New(cfg, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	for i, b := range bodies {
		resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader(b))
		if err != nil {
			ts.Close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ts.Close()
			return nil, fmt.Errorf("clusterserve: oracle commit %d: status %d", i, resp.StatusCode)
		}
	}
	return ts, nil
}

// chaosFetch GETs url and decodes the JSON body with the volatile
// computed_at field stripped.
func chaosFetch(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	delete(out, "computed_at")
	return out, nil
}

// diffJSON deep-compares decoded JSON with exact Float64bits equality on
// numbers, appending a line per deviation. encoding/json round-trips
// float64 bitwise, so any deviation is a real attribution divergence.
func diffJSON(path string, got, want any, out *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			*out = append(*out, fmt.Sprintf("%s: object shape differs", path))
			return
		}
		ks := make([]string, 0, len(w))
		for k := range w {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			gv, ok := g[k]
			if !ok {
				*out = append(*out, fmt.Sprintf("%s: missing key %q", path, k))
				continue
			}
			diffJSON(path+"."+k, gv, w[k], out)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			*out = append(*out, fmt.Sprintf("%s: array shape differs", path))
			return
		}
		for i := range w {
			diffJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], out)
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			*out = append(*out, fmt.Sprintf("%s: %v != oracle %v", path, got, w))
		}
	default:
		if got != want {
			*out = append(*out, fmt.Sprintf("%s: %v != oracle %v", path, got, want))
		}
	}
}
