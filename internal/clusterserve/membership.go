package clusterserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"fairco2/internal/attrserver"
)

// MemberState is one peer's position in the health state machine. The
// numeric values are published as the fairco2_cluster_member_state gauge,
// so they are part of the metric contract: 0 down, 1 warming, 2 up.
type MemberState int32

// The three membership states. Up peers are ring members; Warming peers
// are alive but still replaying missed commits (excluded from the ring,
// still replicated to); Down peers are excluded and skipped entirely.
const (
	MemberDown    MemberState = 0
	MemberWarming MemberState = 1
	MemberUp      MemberState = 2
)

func (s MemberState) String() string {
	switch s {
	case MemberDown:
		return "down"
	case MemberWarming:
		return "warming"
	case MemberUp:
		return "up"
	}
	return "unknown"
}

// ProbeConfig tunes the health prober. Zero values select the defaults.
type ProbeConfig struct {
	// Interval is the base probe period per peer (default 500ms). Each
	// probe is scheduled Interval plus up to Jitter*Interval later, so a
	// fleet's probes decorrelate instead of arriving in waves.
	Interval time.Duration
	// Jitter is the fractional spread on Interval (default 0.2).
	Jitter float64
	// Timeout bounds one probe request (default Interval/2). A peer that
	// accepts connections but stalls past it counts as failed — the
	// partition fault mode.
	Timeout time.Duration
	// FailThreshold is K: consecutive probe failures before a peer
	// transitions to Down (default 3).
	FailThreshold int
	// UpThreshold is M: consecutive ok probes before a non-Up peer
	// transitions to Up (default 2). Hysteresis: a flapping peer must
	// string M clean probes together to rejoin the ring. A Down peer that
	// pulls this node's commit log is lifted to Warming at once, without
	// waiting for M probes, so it is replicated to while it catches up.
	UpThreshold int
	// Seed derives each probe loop's jitter stream, so tests replay
	// exactly (default 1).
	Seed int64
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	if c.UpThreshold < 1 {
		c.UpThreshold = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// memberHealth is one peer's hysteresis accounting. Guarded by
// membership.mu.
type memberHealth struct {
	state MemberState
	fails int // consecutive probe failures
	oks   int // consecutive ok probes
	// cursor is how far into this peer's commit log we have accounted:
	// fast-forwarded on healthy probes (live replication already delivered
	// those commits) and advanced by replay during catch-up pulls.
	cursor uint64
	// pullPending freezes cursor fast-forwarding until a catch-up pull
	// from this peer completes: set at start (nothing pulled yet) and on
	// each transition to Up, so the pull cannot be skipped past by a
	// probe racing it.
	pullPending bool
	// resend is the lowest sequence in our own commit log that failed to
	// reach this peer, or was skipped while it was Down (0 = none). The
	// first ok probe that finds the peer replicable re-sends the log from
	// there. The mark outlives a Down spell: a peer cut off only inbound
	// still sees us Up and never pulls what it missed.
	resend uint64
}

// membership runs the health probers for one node and owns the peer state
// machine. Transitions rebuild the node's active ring, which is swapped
// atomically so the request path never locks.
type membership struct {
	n   *Node
	cfg ProbeConfig

	mu    sync.Mutex
	peers map[string]*memberHealth

	syncMu sync.Mutex // serializes catch-up pulls

	stop      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

func newMembership(n *Node, cfg ProbeConfig) *membership {
	m := &membership{
		n:     n,
		cfg:   cfg.withDefaults(),
		peers: make(map[string]*memberHealth, len(n.urls)),
		stop:  make(chan struct{}),
	}
	// Peers start Up (optimistic, the static-membership behavior) so a
	// cluster with its prober briefly behind still routes everywhere.
	for id := range n.urls {
		m.peers[id] = &memberHealth{state: MemberUp, pullPending: true}
		m.n.inst.MemberState.With(m.n.id, id).Set(float64(MemberUp))
	}
	return m
}

// start reports Warming and launches the warmup catch-up and the per-peer
// probe loops concurrently; later calls do nothing. Probing must not wait
// behind warmup: failure detection has to run throughout (warmup and
// probe-triggered pulls serialize on syncMu, so they never race each
// other's replays).
func (m *membership) start() {
	m.startOnce.Do(func() {
		m.n.setHealth(attrserver.HealthWarming)
		m.wg.Add(1 + len(m.peers))
		go func() {
			defer m.wg.Done()
			m.warmup()
		}()
		for id := range m.peers {
			go m.probeLoop(id)
		}
	})
}

func (m *membership) halt() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *membership) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until halt, reporting whether it slept the full d.
func (m *membership) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.stop:
		return false
	case <-t.C:
		return true
	}
}

// probeLoop polls one peer's /healthz forever on a jittered interval.
func (m *membership) probeLoop(peer string) {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(fnv64a(peer))))
	for {
		d := m.cfg.Interval + time.Duration(rng.Int63n(int64(float64(m.cfg.Interval)*m.cfg.Jitter)+1))
		if !m.sleep(d) {
			return
		}
		m.probe(peer)
	}
}

// probeDoc is the healthz subset the prober parses.
type probeDoc struct {
	Status    string `json:"status"`
	CommitSeq uint64 `json:"commit_seq"`
}

// probe issues one health check and feeds the outcome into the state
// machine.
func (m *membership) probe(peer string) {
	doc, err := m.fetchHealth(peer)
	switch {
	case err != nil || doc.Status == attrserver.HealthDraining:
		m.observeFailure(peer)
	case doc.Status == attrserver.HealthWarming:
		m.observeWarming(peer)
	default:
		m.observeOK(peer, doc.CommitSeq)
	}
}

func (m *membership) fetchHealth(peer string) (probeDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.n.urls[peer]+"/healthz", nil)
	if err != nil {
		return probeDoc{}, err
	}
	resp, err := m.n.client.Do(req)
	if err != nil {
		return probeDoc{}, err
	}
	defer resp.Body.Close()
	var doc probeDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&doc); err != nil {
		return probeDoc{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return probeDoc{}, fmt.Errorf("clusterserve: peer %s healthz status %d", peer, resp.StatusCode)
	}
	return doc, nil
}

// observeOK counts a clean probe: M consecutive of them bring a non-Up
// peer back into the ring and trigger a catch-up pull for the commits we
// missed while it was unreachable. A replicable peer that missed one of
// our commits gets our log re-sent from the first one it missed.
func (m *membership) observeOK(peer string, seq uint64) {
	m.mu.Lock()
	h := m.peers[peer]
	h.fails = 0
	h.oks++
	if h.state != MemberUp && h.oks >= m.cfg.UpThreshold {
		m.transitionLocked(peer, h, MemberUp)
		h.pullPending = true
	}
	// An Up peer still pending a pull was just readmitted, or no pull
	// from it has completed yet.
	pull := h.state == MemberUp && h.pullPending
	if h.state == MemberUp && !h.pullPending && seq > h.cursor {
		// Live replication already delivered these commits; account for
		// them so a later outage pulls only what was actually missed.
		h.cursor = seq
	}
	var resend uint64
	if h.state != MemberDown {
		resend, h.resend = h.resend, 0
	}
	m.mu.Unlock()
	if resend > 0 {
		m.n.resend(peer, resend)
	}
	if pull {
		m.pullFrom(peer)
	}
}

func (m *membership) observeWarming(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.peers[peer]
	h.fails, h.oks = 0, 0
	// A self-reported state needs no hysteresis: the peer is alive and
	// explicitly not ready.
	if h.state != MemberWarming {
		m.transitionLocked(peer, h, MemberWarming)
	}
}

func (m *membership) observeFailure(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.peers[peer]
	h.oks = 0
	h.fails++
	if h.state != MemberDown && h.fails >= m.cfg.FailThreshold {
		m.transitionLocked(peer, h, MemberDown)
		// The peer may come back as a fresh incarnation whose commit log
		// restarts at zero; forget the cursor so rejoin replays its whole
		// history. Replay is idempotent, so safety costs only bounded
		// (commit-rate, not request-rate) work.
		h.cursor = 0
		h.pullPending = false
	}
}

// announce lifts a Down peer to Warming when it asks for our commit log:
// replicate sends it every commit from here on, so the page the sync
// handler reads next, plus live replication, covers everything this node
// applied. Up, Warming and unknown peers are left as they are.
func (m *membership) announce(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.peers[peer]; ok && h.state == MemberDown {
		m.transitionLocked(peer, h, MemberWarming)
	}
}

// undelivered records that the commit at our log sequence seq did not
// reach peer, for the next ok probe to re-send.
func (m *membership) undelivered(peer string, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.peers[peer]; h.resend == 0 || seq < h.resend {
		h.resend = seq
	}
}

// transitionLocked flips one peer's state, publishes the change, and
// swaps in a rebuilt ring excluding non-Up peers. Callers hold m.mu.
func (m *membership) transitionLocked(peer string, h *memberHealth, to MemberState) {
	h.state = to
	h.fails, h.oks = 0, 0
	m.n.inst.MemberState.With(m.n.id, peer).Set(float64(to))
	m.n.inst.Transitions.With(peer, to.String()).Inc()
	members := []string{m.n.id}
	for id, ph := range m.peers {
		if ph.state == MemberUp {
			members = append(members, id)
		}
	}
	ring, err := NewRing(members, m.n.ring.VNodes())
	if err != nil {
		// Unreachable: members always includes self and IDs were already
		// validated at construction. Keep the previous ring.
		return
	}
	m.n.active.Store(ring)
}

// states snapshots the peer state machine (for introspection and tests).
func (m *membership) states() map[string]MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]MemberState, len(m.peers))
	for id, h := range m.peers {
		out[id] = h.state
	}
	return out
}

// replicable reports whether commits should still be broadcast to peer:
// Down peers are skipped (they will catch up on rejoin), Warming ones keep
// receiving live commits so their catch-up misses none.
func (m *membership) replicable(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[peer].state != MemberDown
}

// warmup is the rejoin catch-up: the node reports Warming (start set it),
// pages once through every reachable peer's commit log, then reports OK
// and enters normal service. Each pull announces this node, so a peer
// that held it Down replicates to it from before it serves the page:
// whatever a peer commits after its page reaches us live, and one pass
// misses nothing. Every peer is asked, because nodes never re-broadcast
// the commits they receive. An unreachable peer is skipped; the prober
// pulls from it once it answers. With no peer reachable (a fresh cluster
// booting all at once, or a full partition) the node serves what it has.
func (m *membership) warmup() {
	start := time.Now()
	for id := range m.n.urls {
		if m.stopped() {
			return
		}
		m.pullFrom(id)
	}
	// Readers wait on a positive lag as the sign that warmup finished.
	m.n.inst.SyncLag.Set(math.Max(time.Since(start).Seconds(), 1e-9))
	m.n.setHealth(attrserver.HealthOK)
}

// pullFrom pages through peer's commit log from our cursor, replaying
// every entry locally, up to the log length its first page reported:
// later entries reach us by live replication, so a peer committing faster
// than we replay cannot keep the pull going. Replays are idempotent
// whole-workload replacements, so overlapping pulls from different peers
// converge. A pull that fails leaves pullPending set, and the next ok
// probe of peer retries it.
func (m *membership) pullFrom(peer string) {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	var head uint64
	for page := 0; ; page++ {
		m.mu.Lock()
		cursor := m.peers[peer].cursor
		m.mu.Unlock()
		resp, err := m.fetchSync(peer, cursor)
		if err != nil {
			return
		}
		if page == 0 {
			head = resp.CommitSeq
		}
		for _, e := range resp.Entries {
			if err := m.n.applySynced(CommitEntry{Stamp: e.Stamp, Origin: e.Origin, Body: []byte(e.Body)}); err != nil {
				return
			}
		}
		done := !resp.More || resp.Next >= head
		m.mu.Lock()
		if resp.Next > m.peers[peer].cursor {
			m.peers[peer].cursor = resp.Next
		}
		if done {
			m.peers[peer].pullPending = false
		}
		m.mu.Unlock()
		if done || m.stopped() {
			return
		}
	}
}

// exchangeTimeout bounds one sync pull, one live replication push and
// one peer's whole re-send: long enough for a live peer's answer, short
// enough that a peer that accepts and then stalls cannot hold the caller.
func (m *membership) exchangeTimeout() time.Duration { return 4 * m.cfg.Timeout }

func (m *membership) fetchSync(peer string, since uint64) (*syncResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.exchangeTimeout())
	defer cancel()
	target := fmt.Sprintf("%s/v1/cluster/sync?since=%d&from=%s", m.n.urls[peer], since, url.QueryEscape(m.n.id))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("clusterserve: sync from %s: status %d", peer, resp.StatusCode)
	}
	var out syncResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// applySynced replays one commit-log entry exactly as a live replicated
// commit would apply: through the per-tenant commit-order guard, under
// commitMu, never re-broadcast. Only entries that changed state count as
// replayed — entries already delivered by live replication, or
// superseded by a newer commit, are skipped.
func (n *Node) applySynced(e CommitEntry) error {
	applied, rec := n.applyReplicated(e.Stamp, e.Origin, e.Body)
	if rec.status != http.StatusOK {
		return fmt.Errorf("clusterserve: replaying synced commit: status %d: %s", rec.status, rec.body.String())
	}
	if applied {
		n.inst.SyncReplayed.Inc()
	}
	return nil
}
