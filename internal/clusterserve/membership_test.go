package clusterserve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/resilience/faultserver"
)

// fastProbes is the membership test clock: quick enough that eviction and
// readmission fit a unit test, with the same K=3 / M=2 hysteresis the
// defaults use. The 20ms probe timeout leaves an in-process healthz call
// orders of magnitude of headroom even under the race detector, so a
// starved CI runner does not fabricate probe failures.
func fastProbes() ProbeConfig {
	return ProbeConfig{Interval: 40 * time.Millisecond}
}

// waitState polls until every replica in watchers sees peer in state want,
// or the deadline passes.
func waitState(t *testing.T, f *Fleet, watchers []int, peer string, want MemberState, within time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		all := true
		for _, i := range watchers {
			if f.Nodes[i].MemberStates()[peer] != want {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestMembershipEvictsAndReadmits: a sustained outage on one replica
// drives every peer's prober through K consecutive failures to Down (the
// active ring shrinks), and recovery brings it back through M consecutive
// oks to Up (the ring regrows).
func TestMembershipEvictsAndReadmits(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	victim := f.IDs[1]

	f.Gates[1].Program(faultserver.Outage(503))
	if !waitState(t, f, []int{0, 2}, victim, MemberDown, 2*time.Second) {
		t.Fatalf("peers never evicted %s: node0=%v node2=%v", victim,
			f.Nodes[0].MemberStates(), f.Nodes[2].MemberStates())
	}
	if f.Nodes[0].ActiveRing().Contains(victim) {
		t.Errorf("node 0 active ring still contains down replica %s", victim)
	}
	if got := series(f, "fairco2_cluster_member_state", f.IDs[0], victim); got != float64(MemberDown) {
		t.Errorf("member_state gauge = %v, want %v (down)", got, float64(MemberDown))
	}
	if got := series(f, "fairco2_cluster_transitions_total", f.IDs[0], victim, "down"); got < 1 {
		t.Errorf("transitions{to=down} = %v, want >= 1", got)
	}

	f.Gates[1].Clear()
	if !waitState(t, f, []int{0, 2}, victim, MemberUp, 2*time.Second) {
		t.Fatalf("peers never readmitted %s: node0=%v node2=%v", victim,
			f.Nodes[0].MemberStates(), f.Nodes[2].MemberStates())
	}
	if !f.Nodes[0].ActiveRing().Contains(victim) {
		t.Errorf("node 0 active ring does not contain recovered replica %s", victim)
	}
	if got := series(f, "fairco2_cluster_transitions_total", f.IDs[0], victim, "up"); got < 1 {
		t.Errorf("transitions{to=up} = %v, want >= 1", got)
	}
}

// TestMembershipPartitionEvicts: the accept-then-stall partition — where
// connections establish but no bytes come back — must count as probe
// failure via the probe timeout and evict exactly like a blackout.
func TestMembershipPartitionEvicts(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	victim := f.IDs[2]

	f.Gates[2].Program(faultserver.Partitioned())
	if !waitState(t, f, []int{0, 1}, victim, MemberDown, 2*time.Second) {
		t.Fatalf("partitioned replica %s never evicted: node0=%v node1=%v", victim,
			f.Nodes[0].MemberStates(), f.Nodes[1].MemberStates())
	}

	f.Gates[2].Clear()
	if !waitState(t, f, []int{0, 1}, victim, MemberUp, 2*time.Second) {
		t.Fatalf("healed replica %s never readmitted", victim)
	}
}

// waitWarmupDone blocks until replica i's warmup catch-up has finished
// (the sync-lag gauge is set exactly once, at warmup completion).
func waitWarmupDone(t *testing.T, f *Fleet, i int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if series(f, "fairco2_cluster_sync_lag_seconds", f.IDs[i]) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica %s warmup never completed", f.IDs[i])
}

// TestMembershipHysteresisHoldsThroughFlap: a peer whose latency flaps
// above the probe timeout on alternating probes never strings K
// consecutive failures together, so hysteresis keeps it Up — flapping
// must not churn the ring. Two replicas, so node 0's prober is the only
// consumer of the gate's alternating step sequence and the fail runs it
// observes are exactly the programmed ones.
func TestMembershipHysteresisHoldsThroughFlap(t *testing.T) {
	probe := fastProbes().withDefaults()
	f := startTestFleet(t, FleetConfig{Replicas: 2, SelfHeal: true, Probe: probe})
	victim := f.IDs[1]

	// Let node 0's warmup finish first so its health fetches don't consume
	// flap steps out from under the prober.
	waitWarmupDone(t, f, 0)

	// Alternate one timed-out probe with one healthy one, for longer than
	// the eviction window would need.
	f.Gates[1].Program(faultserver.FlapLatency(20, 4*probe.Timeout)...)
	deadline := time.Now().Add(time.Duration(3*probe.FailThreshold) * probe.Interval * 2)
	for time.Now().Before(deadline) {
		if st := f.Nodes[0].MemberStates()[victim]; st == MemberDown {
			t.Fatalf("node 0 evicted flapping replica %s (hysteresis must absorb alternating failures)", victim)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := series(f, "fairco2_cluster_transitions_total", f.IDs[0], victim, "down"); got != 0 {
		t.Errorf("transitions{to=down} = %v during flap, want 0", got)
	}
}

// TestMembershipDrainEvictsWhileServing: BeginDrain fails /healthz so
// peers evict the replica within the hysteresis window, while the
// draining replica itself keeps answering queries — the graceful-SIGTERM
// sequence the server main runs before closing its listener.
func TestMembershipDrainEvictsWhileServing(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	victim := f.IDs[1]

	f.Nodes[1].BeginDrain()
	if !waitState(t, f, []int{0, 2}, victim, MemberDown, 2*time.Second) {
		t.Fatalf("draining replica %s never evicted", victim)
	}

	// Still serving: a query straight at the draining replica completes.
	resp, body := get(t, f.URLs[1]+"/v1/attribution?method=rup&period=0:8", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("draining replica answered %d: %s", resp.StatusCode, body)
	}

	// And its own healthz reports draining with a non-200, which is what
	// load balancers and peers key off.
	resp, _ = get(t, f.URLs[1]+"/healthz", nil)
	if resp.StatusCode != 503 {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
}

// TestMembershipWarmingExcludedFromRing: a peer self-reporting warming is
// excluded from the active ring without hysteresis (it is alive and
// explicitly not ready) but keeps receiving replicated commits.
func TestMembershipWarmingExcludedFromRing(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	victim := f.IDs[1]

	// Wait out replica 1's own warmup: its completion publishes "ok", which
	// would clobber the status this test is about to set.
	waitWarmupDone(t, f, 1)
	f.Srvs[1].SetHealthStatus("warming")
	if !waitState(t, f, []int{0, 2}, victim, MemberWarming, 2*time.Second) {
		t.Fatalf("peers never saw %s warming", victim)
	}
	if f.Nodes[0].ActiveRing().Contains(victim) {
		t.Errorf("node 0 active ring contains warming replica %s", victim)
	}
	if !f.Nodes[0].member.replicable(victim) {
		t.Errorf("warming replica %s must still receive replicated commits", victim)
	}

	f.Srvs[1].SetHealthStatus("ok")
	if !waitState(t, f, []int{0, 2}, victim, MemberUp, 2*time.Second) {
		t.Fatalf("ready replica %s never readmitted", victim)
	}
}

// dropFirstReplication fails the first replicated-commit request sent
// through it, as a lost connection would, and passes everything else.
type dropFirstReplication struct{ dropped atomic.Bool }

func (d *dropFirstReplication) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Header.Get(HeaderReplicate) != "" && d.dropped.CompareAndSwap(false, true) {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("replication dropped")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestMembershipResendsDroppedReplication: a commit whose replication to
// an Up peer fails once is re-sent on the owner's next ok probe of that
// peer, so the fleet converges. The receiver's own prober cannot heal it:
// it fast-forwards its cursor to the owner's log length.
func TestMembershipResendsDroppedReplication(t *testing.T) {
	drop := &dropFirstReplication{}
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes(),
		Node: func(c *Config) { c.Client = &http.Client{Transport: drop} }})
	for i := range f.Nodes {
		waitWarmupDone(t, f, i)
	}

	resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": 1, "cores": 7, "commit": true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: status %d: %v", resp.StatusCode, out)
	}
	if !drop.dropped.Load() {
		t.Fatal("the commit's replication was never dropped")
	}
	want := out["config_fingerprint"]
	deadline := time.Now().Add(2 * time.Second)
	for {
		converged := true
		for _, s := range f.Srvs {
			if fmt.Sprintf("%08x", s.Fingerprint()) != want {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			fps := make([]string, len(f.Srvs))
			for i, s := range f.Srvs {
				fps[i] = fmt.Sprintf("%08x", s.Fingerprint())
			}
			t.Fatalf("fingerprints %v after 2s, want all %v: the dropped replication was never repaired", fps, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSyncWarmupFinishesInOnePass: warmup reports ready once it has paged
// through every peer's log, without waiting for quiet rounds. With a 1 s
// probe interval every replica of a fresh fleet is ok, its sync lag set,
// within 200 ms of its prober starting.
func TestSyncWarmupFinishesInOnePass(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: ProbeConfig{Interval: time.Second}})
	deadline := time.Now().Add(200 * time.Millisecond)
	for i := range f.Nodes {
		for f.Srvs[i].HealthStatus() != "ok" || series(f, "fairco2_cluster_sync_lag_seconds", f.IDs[i]) <= 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s not ready 200ms after start: status %q, sync lag %v", f.IDs[i],
					f.Srvs[i].HealthStatus(), series(f, "fairco2_cluster_sync_lag_seconds", f.IDs[i]))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMembershipResendsAfterInboundOutage: a replica cut off inbound only
// is evicted by its peers, which skip it when replicating, while its own
// prober still sees them Up and fast-forwards its cursors past what they
// committed. The commits it missed are re-sent once the peers' probes
// find it replicable again, so the fleet converges.
func TestMembershipResendsAfterInboundOutage(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	for i := range f.Nodes {
		waitWarmupDone(t, f, i)
	}
	victim := f.IDs[1]

	f.Gates[1].Program(faultserver.Outage(503))
	if !waitState(t, f, []int{0, 2}, victim, MemberDown, 2*time.Second) {
		t.Fatalf("peers never evicted %s", victim)
	}
	for tenant := 0; tenant < 4; tenant++ {
		resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": tenant, "cores": 3 + tenant, "commit": true}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit tenant %d: status %d: %v", tenant, resp.StatusCode, out)
		}
	}
	f.Gates[1].Clear()
	if !waitState(t, f, []int{0, 2}, victim, MemberUp, 2*time.Second) {
		t.Fatalf("peers never readmitted %s", victim)
	}
	want := f.Srvs[0].Fingerprint()
	deadline := time.Now().Add(2 * time.Second)
	for f.Srvs[1].Fingerprint() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica %s fingerprint %08x, want %08x: commits made while it was cut off never reached it",
				victim, f.Srvs[1].Fingerprint(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stalledPeer serves a peer that reads each request's body and then
// answers nothing until the client gives up or the test ends.
func stalledPeer(t *testing.T) *httptest.Server {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stalled.Close)
	t.Cleanup(func() { close(release) })
	return stalled
}

// nodeWithPeer builds an unstarted node "0" whose one peer, "1", is at
// peerURL, with one commit in its log.
func nodeWithPeer(t *testing.T, peerURL string) *Node {
	reg := metrics.NewRegistry()
	scfg := attrserver.DefaultConfig()
	scfg.Schedule = FleetSchedule(8)
	scfg.Budget = 1e6
	srv, err := attrserver.New(scfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ReplicaID: "0", Peers: map[string]string{"1": peerURL}, Server: srv, Probe: fastProbes()}, reg)
	if err != nil {
		t.Fatal(err)
	}
	n.clog.Append(CommitEntry{Stamp: 1, Origin: "0", Body: []byte(`{"tenant":1,"cores":7,"commit":true}`)})
	return n
}

// requireMarkedWithin runs send and requires it to return within 2 s
// with peer "1" marked for a re-send from sequence 1.
func requireMarkedWithin(t *testing.T, n *Node, what string, send func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		send()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s to a stalled peer never returned", what)
	}
	n.member.mu.Lock()
	mark := n.member.peers["1"].resend
	n.member.mu.Unlock()
	if mark != 1 {
		t.Errorf("re-send mark after a stalled %s = %d, want 1", what, mark)
	}
}

// TestMembershipReplicateGivesUpOnStalledPeer: a live push runs inside
// the committing request, so a peer that accepts it and then stalls must
// not hold that commit unacknowledged: the push gives up at the sync
// deadline and the entry stays marked for the peer's next ok probe.
func TestMembershipReplicateGivesUpOnStalledPeer(t *testing.T) {
	n := nodeWithPeer(t, stalledPeer(t).URL)
	e, _ := n.clog.Since(0, 1)
	requireMarkedWithin(t, n, "live push", func() { n.replicate(1, e[0]) })
}

// TestMembershipResendGivesUpOnStalledPeer: a re-send runs on a probe
// loop, so a peer that accepts the request and then stalls must not hold
// that loop: the push gives up at the sync deadline and the entry stays
// marked for the next probe.
func TestMembershipResendGivesUpOnStalledPeer(t *testing.T) {
	n := nodeWithPeer(t, stalledPeer(t).URL)
	requireMarkedWithin(t, n, "re-send", func() { n.resend("1", 1) })
}
