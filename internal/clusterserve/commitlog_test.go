package clusterserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestCommitLogSincePaging: Append/Len/Since cursor semantics — paging in
// DefaultSyncPage chunks, an exhausted cursor returning nothing, and the
// append-time body copy.
func TestCommitLogSincePaging(t *testing.T) {
	var l CommitLog
	if got, next := l.Since(0, 0); got != nil || next != 0 {
		t.Fatalf("empty log Since = (%v, %d), want (nil, 0)", got, next)
	}

	buf := []byte(`{"tenant":0}`)
	if seq := l.Append(CommitEntry{Stamp: 1, Origin: "0", Body: buf}); seq != 1 {
		t.Fatalf("first Append seq = %d, want 1", seq)
	}
	buf[2] = 'X' // callers may reuse their buffer; the log must hold a copy
	if got, _ := l.Since(0, 1); string(got[0].Body) != `{"tenant":0}` {
		t.Fatalf("Append aliased the caller's buffer: %q", got[0].Body)
	}

	const total = DefaultSyncPage + 100
	for i := 2; i <= total; i++ {
		l.Append(CommitEntry{Stamp: uint64(i), Origin: "0", Body: []byte(`{}`)})
	}
	if l.Len() != total {
		t.Fatalf("Len = %d, want %d", l.Len(), total)
	}

	// Page through with the default page size: one full page, then the tail.
	page1, next := l.Since(0, 0)
	if len(page1) != DefaultSyncPage || next != DefaultSyncPage {
		t.Fatalf("page 1: %d entries, next %d; want %d, %d", len(page1), next, DefaultSyncPage, DefaultSyncPage)
	}
	page2, next := l.Since(next, 0)
	if len(page2) != 100 || next != total {
		t.Fatalf("page 2: %d entries, next %d; want 100, %d", len(page2), next, total)
	}
	if page2[0].Stamp != DefaultSyncPage+1 {
		t.Fatalf("page 2 starts at stamp %d, want %d", page2[0].Stamp, DefaultSyncPage+1)
	}
	if got, n := l.Since(next, 0); got != nil || n != total {
		t.Fatalf("exhausted cursor Since = (%v, %d), want (nil, %d)", got, n, total)
	}
}

// TestSyncEndpointWireShape: GET /v1/cluster/sync pages the commit log in
// the documented JSON shape, every entry carrying its (stamp, origin)
// identity, and rejects an unparsable cursor.
func TestSyncEndpointWireShape(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 2})

	for tenant := 0; tenant < 3; tenant++ {
		resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": tenant, "cores": 5 + tenant, "commit": true}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit tenant %d: status %d: %v", tenant, resp.StatusCode, out)
		}
	}

	// Replication lands every commit in both logs.
	for i, n := range f.Nodes {
		if n.CommitSeq() != 3 {
			t.Fatalf("replica %d commit log length = %d, want 3", i, n.CommitSeq())
		}
	}

	resp, body := get(t, f.URLs[1]+"/v1/cluster/sync?since=0", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d: %s", resp.StatusCode, body)
	}
	var sr syncResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatalf("decoding sync response: %v", err)
	}
	if sr.Replica != "1" || sr.Since != 0 || sr.Next != 3 || sr.More || sr.CommitSeq != 3 {
		t.Fatalf("sync envelope = %+v, want replica=1 since=0 next=3 more=false commit_seq=3", sr)
	}
	if len(sr.Entries) != 3 {
		t.Fatalf("sync carried %d entries, want 3", len(sr.Entries))
	}
	for i, e := range sr.Entries {
		if e.Stamp == 0 || e.Origin == "" {
			t.Errorf("entry %d missing commit identity: %+v", i, e)
		}
		var delta struct {
			Tenant int `json:"tenant"`
		}
		if err := json.Unmarshal(e.Body, &delta); err != nil {
			t.Errorf("entry %d body is not the delta JSON: %v", i, err)
		} else if delta.Tenant != i {
			t.Errorf("entry %d is tenant %d's delta, want tenant %d (log order)", i, delta.Tenant, i)
		}
	}

	// A cursor mid-log pages the tail only.
	resp, body = get(t, f.URLs[1]+"/v1/cluster/sync?since=2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync since=2: status %d", resp.StatusCode)
	}
	sr = syncResponse{}
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Entries) != 1 || sr.Next != 3 || sr.More {
		t.Fatalf("sync since=2 = %+v, want 1 entry, next=3, more=false", sr)
	}

	resp, _ = get(t, f.URLs[1]+"/v1/cluster/sync?since=nope", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sync with bad cursor: status %d, want 400", resp.StatusCode)
	}

	// A pull announces its caller: a Down caller is lifted to Warming, so
	// it is replicated to again; an unknown ID changes nothing.
	for k := 0; k < 3; k++ {
		f.Nodes[1].member.observeFailure("0")
	}
	get(t, f.URLs[1]+"/v1/cluster/sync?since=3&from=nope", nil)
	if st := f.Nodes[1].MemberStates()["0"]; st != MemberDown {
		t.Fatalf("sync from an unknown replica moved replica 0 to %v, want down", st)
	}
	get(t, f.URLs[1]+"/v1/cluster/sync?since=3&from=0", nil)
	if st := f.Nodes[1].MemberStates()["0"]; st != MemberWarming {
		t.Fatalf("sync from down replica 0 left it %v, want warming", st)
	}
}

// TestApplyReplicatedOrderingGuard: the per-tenant (stamp, origin) commit
// order — duplicates and stale replays are acknowledged without applying,
// equal stamps break ties on origin, and the local Lamport clock advances
// past every stamp seen so the node's own next commit orders after.
func TestApplyReplicatedOrderingGuard(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 1})
	n := f.Nodes[0]
	body := func(cores int) []byte {
		return []byte(fmt.Sprintf(`{"tenant":2,"cores":%d,"commit":true}`, cores))
	}

	apply := func(stamp uint64, origin string, cores int) bool {
		t.Helper()
		applied, rec := n.applyReplicated(stamp, origin, body(cores))
		if rec.status != http.StatusOK {
			t.Fatalf("applyReplicated(%d, %q): status %d: %s", stamp, origin, rec.status, rec.body.String())
		}
		return applied
	}

	fp0 := f.Srvs[0].Fingerprint()
	if !apply(5, "9", 7) {
		t.Fatal("first commit (5, 9) did not apply")
	}
	fpAfter := f.Srvs[0].Fingerprint()
	if fpAfter == fp0 {
		t.Fatal("applied commit did not change the schedule")
	}
	if n.CommitSeq() != 1 {
		t.Fatalf("commit log length = %d, want 1", n.CommitSeq())
	}

	// Exact duplicate: acknowledged, no state change, no log growth.
	if apply(5, "9", 7) {
		t.Error("duplicate (5, 9) applied")
	}
	// Older stamp: a stale replay must not clobber newer state.
	if apply(4, "9", 1) {
		t.Error("stale (4, 9) applied over (5, 9)")
	}
	// Equal stamp, smaller origin: loses the tie-break.
	if apply(5, "8", 1) {
		t.Error("(5, 8) applied over (5, 9): origin tie-break inverted")
	}
	if n.CommitSeq() != 1 || f.Srvs[0].Fingerprint() != fpAfter {
		t.Fatalf("rejected replays mutated state: log=%d", n.CommitSeq())
	}
	// Equal stamp, larger origin: wins the tie-break.
	if !apply(5, "z", 3) {
		t.Error("(5, z) did not apply over (5, 9): origin tie-break inverted")
	}
	if n.CommitSeq() != 2 {
		t.Fatalf("commit log length = %d, want 2", n.CommitSeq())
	}

	// The clock advanced past stamp 5, so the node's own next commit draws
	// a strictly larger stamp and orders after everything it has seen.
	resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": 2, "cores": 11, "commit": true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("own commit after replays: status %d: %v", resp.StatusCode, out)
	}
	entries, _ := n.clog.Since(n.CommitSeq()-1, 1)
	if len(entries) != 1 || entries[0].Stamp <= 5 || entries[0].Origin != "0" {
		t.Fatalf("own commit stamped %+v, want stamp > 5 from origin 0", entries)
	}
}

// TestRejoinCatchUp is the full rejoin story: a replica dies, commits land
// while it is dark, and on restart — with a fresh, stale schedule — its
// warmup replays the missed commits from a peer's log before it reports
// ready, converging all fingerprints.
func TestRejoinCatchUp(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes()})
	victim := f.IDs[1]

	f.CloseReplica(1)
	if !waitState(t, f, []int{0, 2}, victim, MemberDown, 2*time.Second) {
		t.Fatalf("survivors never evicted killed replica %s", victim)
	}

	for tenant := 0; tenant < 4; tenant++ {
		resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": tenant, "cores": 3 + tenant, "commit": true}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit tenant %d with replica dark: status %d: %v", tenant, resp.StatusCode, out)
		}
	}
	want := f.Srvs[0].Fingerprint()
	if f.Srvs[2].Fingerprint() != want {
		t.Fatal("survivors diverged before the restart")
	}

	replayedBefore := series(f, "fairco2_cluster_sync_replayed_total", victim)
	if err := f.RestartReplica(1); err != nil {
		t.Fatal(err)
	}
	if !waitState(t, f, []int{0, 2}, victim, MemberUp, 5*time.Second) {
		t.Fatalf("restarted replica %s never readmitted: node0=%v", victim, f.Nodes[0].MemberStates())
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && f.Srvs[1].Fingerprint() != want {
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.Srvs[1].Fingerprint(); got != want {
		t.Fatalf("restarted replica fingerprint %08x, want %08x: catch-up did not converge", got, want)
	}
	if got := series(f, "fairco2_cluster_sync_replayed_total", victim); got <= replayedBefore {
		t.Errorf("sync_replayed for %s = %v, want > %v: rejoin did not replay the missed commits", victim, got, replayedBefore)
	}
}

// TestRejoinWhilePeersHoldItDown: a restarted replica can finish warmup
// before any peer's prober has seen it back, and a peer that still holds
// it Down skips it when replicating. Its warmup pulls announce it, so
// every peer replicates to it from the page on, and commits made right
// after it reports ready still reach it. Replicas 0 and 2 probe once an
// hour, so nothing but those announces can lift replica 1.
func TestRejoinWhilePeersHoldItDown(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3, SelfHeal: true, Probe: fastProbes(),
		Node: func(c *Config) {
			if c.ReplicaID != "1" {
				c.Probe.Interval = time.Hour
			}
		}})
	victim := f.IDs[1]

	f.CloseReplica(1)
	for _, i := range []int{0, 2} {
		for k := 0; k < 3; k++ {
			f.Nodes[i].member.observeFailure(victim)
		}
		if st := f.Nodes[i].MemberStates()[victim]; st != MemberDown {
			t.Fatalf("replica %d sees %s as %v after three failures, want down", i, victim, st)
		}
	}

	// The sync-lag gauge outlives the first incarnation; clear it so that
	// waitWarmupDone waits for the restarted replica's own warmup.
	f.Nodes[1].inst.SyncLag.Set(0)
	if err := f.RestartReplica(1); err != nil {
		t.Fatal(err)
	}
	waitWarmupDone(t, f, 1)
	if st := f.Srvs[1].HealthStatus(); st != "ok" {
		t.Fatalf("restarted replica %s reports %q after warmup, want ok", victim, st)
	}

	for tenant := 0; tenant < 4; tenant++ {
		resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": tenant, "cores": 3 + tenant, "commit": true}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit tenant %d: status %d: %v", tenant, resp.StatusCode, out)
		}
	}
	want := f.Srvs[0].Fingerprint()
	deadline := time.Now().Add(2 * time.Second)
	for f.Srvs[1].Fingerprint() != want {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica fingerprint %08x, want %08x: commits made after its warmup never reached it (peers see it %v, %v)",
				f.Srvs[1].Fingerprint(), want, f.Nodes[0].MemberStates()[victim], f.Nodes[2].MemberStates()[victim])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
