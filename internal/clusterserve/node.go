package clusterserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/resilience"
)

// Cluster protocol headers.
const (
	// HeaderForwarded marks a request forwarded by a peer (value: the
	// forwarding replica's ID). It is the loop guard: a forwarded request
	// landing on a non-owner answers 421 instead of forwarding again.
	HeaderForwarded = "X-FairCO2-Forwarded"
	// HeaderReplicate marks a committed demand delta being replicated
	// from its owner (value: the owner's ID). Receivers apply locally and
	// never re-broadcast.
	HeaderReplicate = "X-FairCO2-Replicate"
	// HeaderCommitStamp carries a replicated commit's Lamport stamp; with
	// the origin in HeaderReplicate it identifies the commit cluster-wide,
	// so receivers can drop duplicates and stale replays.
	HeaderCommitStamp = "X-FairCO2-Commit-Stamp"
	// HeaderTenant names the requesting tenant for admission control.
	// Absent, the tenant query parameter and then the remote address
	// stand in.
	HeaderTenant = "X-FairCO2-Tenant"
	// HeaderRetryAfterMs accompanies 429 responses with the back-off in
	// milliseconds — the standard Retry-After header only carries whole
	// seconds, too coarse for the in-process load harness.
	HeaderRetryAfterMs = "X-FairCO2-Retry-After-Ms"
)

// Config wires one Node around its attrserver replica.
type Config struct {
	// ReplicaID is this node's identity on the ring (required). It should
	// match the attrserver's Replica label so routing and metrics agree.
	ReplicaID string
	// Peers maps replica ID to base URL for every cluster member. The
	// entry for ReplicaID itself is optional (a node never dials itself);
	// all other members need a URL to forward to.
	Peers map[string]string
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// Server is the local attrserver replica (required).
	Server *attrserver.Server
	// Admission configures load shedding at this node's ingress.
	Admission AdmissionConfig
	// Probe configures the health prober that Start launches.
	Probe ProbeConfig
	// Hedge configures hedged forwarding and the per-peer breakers.
	Hedge HedgeConfig
	// Client issues forwarded and replicated requests (default: a plain
	// http.Client; request contexts bound the forwards).
	Client *http.Client
}

// Instruments are the cluster-layer metrics for one Node, all children of
// replica-labeled families so every node in a fleet shares one registry.
type Instruments struct {
	// Local counts requests served by this replica's own attrserver
	// (fairco2_cluster_local_requests_total{replica}).
	Local *metrics.Counter
	// Forwards counts single-hop forwards by destination
	// (fairco2_cluster_forwards_total{replica,peer}).
	Forwards metrics.CurriedCounterVec
	// ForwardErrors counts forwards that failed at the network and fell
	// back to local computation — availability over deduplication.
	ForwardErrors *metrics.Counter
	// Misrouted counts forwarded-in requests this replica did not own
	// (answered 421; the loop guard firing).
	Misrouted *metrics.Counter
	// Shed counts admission rejections by reason, tenant-rate or
	// queue-depth (fairco2_cluster_shed_total{replica,reason}).
	Shed metrics.CurriedCounterVec
	// Replications / ReplicationErrors count committed-delta broadcasts
	// to peers.
	Replications      *metrics.Counter
	ReplicationErrors *metrics.Counter
	// QueueDepth gauges requests currently holding a local-compute slot.
	QueueDepth *metrics.Gauge
	// MemberState gauges each peer's membership state as seen from this
	// replica (fairco2_cluster_member_state{replica,peer}: 0 down,
	// 1 warming, 2 up).
	MemberState metrics.GaugeVec
	// Transitions counts membership state changes by peer and target
	// state (fairco2_cluster_transitions_total{replica,peer,to}).
	Transitions metrics.CurriedCounterVec
	// Hedges counts reads raced to a successor because the owner overran
	// the latency budget.
	Hedges *metrics.Counter
	// Failovers counts attempts re-routed past a failed, broken-open, or
	// ring-disagreeing candidate.
	Failovers *metrics.Counter
	// SyncReplayed counts commit-log entries replayed from peers during
	// catch-up.
	SyncReplayed *metrics.Counter
	// SyncLag gauges how long the last warmup catch-up took
	// (fairco2_cluster_sync_lag_seconds{replica}).
	SyncLag *metrics.Gauge
}

// NewInstruments registers (or joins) the cluster metric families on reg,
// bound to the given replica label.
func NewInstruments(reg *metrics.Registry, replica string) *Instruments {
	return &Instruments{
		Local: reg.GetOrNewCounterVec(
			"fairco2_cluster_local_requests_total",
			"Requests served by this replica's own attrserver.",
			"replica").With(replica),
		Forwards: reg.GetOrNewCounterVec(
			"fairco2_cluster_forwards_total",
			"Single-hop forwards to the owning replica, by destination.",
			"replica", "peer").Curry(replica),
		ForwardErrors: reg.GetOrNewCounterVec(
			"fairco2_cluster_forward_errors_total",
			"Forwards that failed at the network and fell back to local computation.",
			"replica").With(replica),
		Misrouted: reg.GetOrNewCounterVec(
			"fairco2_cluster_misrouted_total",
			"Forwarded-in requests this replica did not own (answered 421).",
			"replica").With(replica),
		Shed: reg.GetOrNewCounterVec(
			"fairco2_cluster_shed_total",
			"Admission rejections (429), by reason.",
			"replica", "reason").Curry(replica),
		Replications: reg.GetOrNewCounterVec(
			"fairco2_cluster_replications_total",
			"Committed demand deltas replicated to peers.",
			"replica").With(replica),
		ReplicationErrors: reg.GetOrNewCounterVec(
			"fairco2_cluster_replication_errors_total",
			"Committed-delta replications that failed.",
			"replica").With(replica),
		QueueDepth: reg.GetOrNewGaugeVec(
			"fairco2_cluster_queue_depth",
			"Requests currently holding a local-compute slot.",
			"replica").With(replica),
		MemberState: reg.GetOrNewGaugeVec(
			"fairco2_cluster_member_state",
			"Peer membership state as seen from this replica: 0 down, 1 warming, 2 up.",
			"replica", "peer"),
		Transitions: reg.GetOrNewCounterVec(
			"fairco2_cluster_transitions_total",
			"Membership state transitions, by peer and target state.",
			"replica", "peer", "to").Curry(replica),
		Hedges: reg.GetOrNewCounterVec(
			"fairco2_cluster_hedges_total",
			"Reads hedged to a ring successor after the owner overran the latency budget.",
			"replica").With(replica),
		Failovers: reg.GetOrNewCounterVec(
			"fairco2_cluster_failovers_total",
			"Attempts re-routed past a failed, broken-open, or ring-disagreeing candidate.",
			"replica").With(replica),
		SyncReplayed: reg.GetOrNewCounterVec(
			"fairco2_cluster_sync_replayed_total",
			"Commit-log entries replayed from peers during catch-up.",
			"replica").With(replica),
		SyncLag: reg.GetOrNewGaugeVec(
			"fairco2_cluster_sync_lag_seconds",
			"Duration of the last warmup catch-up, in seconds.",
			"replica").With(replica),
	}
}

// Node is the forwarding proxy around one attrserver replica: it admits,
// routes on the consistent-hash ring, and serves locally or forwards
// exactly one hop to the owner.
type Node struct {
	cfg    Config
	id     string
	ring   *Ring             // full configured membership, immutable
	urls   map[string]string // peer ID -> base URL, self excluded
	local  http.Handler
	client *http.Client
	admit  *bucketTable // nil when per-tenant limiting is off
	inst   *Instruments

	// active is the routing ring the prober maintains: the full ring
	// minus peers currently Down or Warming. Requests load it atomically;
	// transitions swap in a rebuilt ring.
	active atomic.Pointer[Ring]
	// clog records every committed delta this replica applied, in apply
	// order, for the /v1/cluster/sync catch-up endpoint.
	clog *CommitLog
	// member is the peer state machine, built by New (nil without peers)
	// and never reassigned, so handlers may read it before Start returns.
	// Until Start runs its probers every configured peer reads Up.
	member *membership
	// draining latches once BeginDrain is called so the warmup catch-up
	// finishing cannot flip a SIGTERM'd replica back to healthy.
	draining atomic.Bool

	// hedge and the per-peer breakers drive hedged failover; rnd (under
	// rngMu) draws the delta-failover backoff jitter.
	hedge    HedgeConfig
	breakers map[string]*resilience.Breaker
	rngMu    sync.Mutex
	rnd      *rand.Rand

	// queueMax bounds concurrent local computations; queueDepth tracks
	// them. Shedding compares after-increment depth against the bound.
	queueMax   int64
	queueDepth atomic.Int64

	// commitMu serializes commits on this replica (own commits and
	// replicated ones alike), so a commit and the cache warm it triggers
	// are atomic with respect to the others. It is never held across
	// network calls — replication fans out after release — so two
	// replicas replicating to each other cannot deadlock. It also guards
	// the commit-ordering state below.
	commitMu sync.Mutex
	// lamport is this replica's logical clock: bumped past every stamp it
	// sees, incremented when it originates a commit. Because a commit is
	// replicated to all live peers before it is acknowledged, any
	// causally-later commit draws a strictly larger stamp regardless of
	// which replica stamps it.
	lamport uint64
	// lastCommit records, per tenant, the newest (stamp, origin) applied.
	// An arriving commit — live replication and sync replay alike — is
	// applied only if it orders after this mark: duplicates are dropped
	// and an old entry replayed after a newer live commit cannot clobber
	// it. Last-writer-wins per tenant, deterministic across replicas.
	lastCommit map[int]commitMark
}

// commitMark is a commit's position in the cluster-wide order: Lamport
// stamp first, origin replica ID as the tie-break.
type commitMark struct {
	stamp  uint64
	origin string
}

// before reports whether m orders before the commit (stamp, origin) —
// i.e. that commit is newer and should apply over m.
func (m commitMark) before(stamp uint64, origin string) bool {
	if stamp != m.stamp {
		return stamp > m.stamp
	}
	return origin > m.origin
}

// New builds a Node and registers its instruments on reg.
func New(cfg Config, reg *metrics.Registry) (*Node, error) {
	if cfg.ReplicaID == "" {
		return nil, fmt.Errorf("clusterserve: empty replica ID")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("clusterserve: nil attrserver")
	}
	cfg.Admission = cfg.Admission.withDefaults()
	if err := cfg.Admission.validate(); err != nil {
		return nil, err
	}
	members := []string{cfg.ReplicaID}
	urls := make(map[string]string, len(cfg.Peers))
	for id, u := range cfg.Peers {
		if id == cfg.ReplicaID {
			continue
		}
		if u == "" {
			return nil, fmt.Errorf("clusterserve: peer %q has no URL", id)
		}
		members = append(members, id)
		urls[id] = u
	}
	ring, err := NewRing(members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	hedge := cfg.Hedge.withDefaults()
	n := &Node{
		cfg:      cfg,
		id:       cfg.ReplicaID,
		ring:     ring,
		urls:     urls,
		local:    cfg.Server.Handler(),
		client:   cfg.Client,
		inst:     NewInstruments(reg, cfg.ReplicaID),
		clog:     &CommitLog{},
		hedge:    hedge,
		breakers: newBreakers(urls, hedge.Breaker),
		rnd:      hedgeRNG(hedge.Seed),
		queueMax: int64(cfg.Admission.MaxQueue),

		lastCommit: make(map[int]commitMark),
	}
	n.active.Store(ring)
	if len(urls) > 0 {
		n.member = newMembership(n, cfg.Probe)
	}
	if n.client == nil {
		n.client = &http.Client{}
	}
	if cfg.Admission.Rate > 0 {
		n.admit = newBucketTable(cfg.Admission.Rate, cfg.Admission.Burst, cfg.Admission.MaxTenants, cfg.Admission.Now)
	}
	return n, nil
}

// Ring returns the full configured ring (ignores health).
func (n *Node) Ring() *Ring { return n.ring }

// ActiveRing returns the ring requests currently route on: the full ring
// with Down and Warming peers excluded. Without a running prober it is
// the full ring.
func (n *Node) ActiveRing() *Ring {
	if r := n.active.Load(); r != nil {
		return r
	}
	return n.ring
}

// Start launches the self-healing layer: the rejoin catch-up (Warming
// until caught up, from the moment Start returns) alongside the per-peer
// health probers. A node that is never started keeps static membership.
// Start and Stop are lifecycle calls — invoke them from one goroutine,
// before and after serving.
func (n *Node) Start() {
	if n.member != nil {
		n.member.start()
	}
}

// Stop halts the probers and waits for them to exit. The node keeps
// serving on its last-known membership; a stopped node is not restartable
// (build a new one).
func (n *Node) Stop() {
	if n.member != nil {
		n.member.halt()
	}
}

// BeginDrain marks this replica draining: /healthz turns 503 so peers'
// probers evict it from their rings within the hysteresis window, while
// in-flight and still-arriving requests keep being served. The caller
// (the server main) waits out the eviction, then shuts the listener down.
func (n *Node) BeginDrain() {
	n.draining.Store(true)
	n.cfg.Server.SetHealthStatus(attrserver.HealthDraining)
}

// setHealth publishes the replica's readiness through its attrserver —
// unless a drain has begun: a SIGTERM arriving mid-warmup must not be
// clobbered by the catch-up finishing and reporting OK.
func (n *Node) setHealth(status string) {
	if n.draining.Load() {
		return
	}
	n.cfg.Server.SetHealthStatus(status)
}

// MemberStates snapshots peer membership as seen from this node. Without
// a running prober every configured peer reads Up.
func (n *Node) MemberStates() map[string]MemberState {
	if n.member == nil {
		return map[string]MemberState{}
	}
	return n.member.states()
}

// CommitSeq is the highest sequence number in this node's commit log.
func (n *Node) CommitSeq() uint64 { return n.clog.Len() }

// Handler returns the cluster routes layered over the local attrserver:
// query and delta endpoints route by key; everything else (metrics,
// healthz, stream stats) serves locally.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/attribution", http.HandlerFunc(n.handleQuery))
	mux.Handle("GET /v1/share", http.HandlerFunc(n.handleQuery))
	mux.Handle("GET /v1/billing", http.HandlerFunc(n.handleQuery))
	mux.Handle("GET /v1/stream/window", http.HandlerFunc(n.handleStreamWindow))
	mux.Handle("POST /v1/demand/delta", http.HandlerFunc(n.handleDelta))
	mux.Handle("GET /v1/cluster", http.HandlerFunc(n.handleInfo))
	mux.Handle("GET /v1/cluster/sync", http.HandlerFunc(n.handleSync))
	mux.Handle("GET /healthz", http.HandlerFunc(n.handleHealthz))
	mux.Handle("/", n.local)
	return mux
}

// handleHealthz layers cluster state onto the local health document: the
// commit-log cursor peers fast-forward on, for minimal rejoin replay. The
// status field and the 503-when-draining code come from the attrserver.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rec := &bufferedResponse{header: http.Header{}}
	n.local.ServeHTTP(rec, r)
	var doc map[string]any
	if err := json.Unmarshal(rec.body.Bytes(), &doc); err == nil && doc != nil {
		doc["commit_seq"] = n.clog.Len()
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		writeJSON(w, status, doc)
		return
	}
	rec.flushTo(w)
}

// handleQuery routes one GET query by its canonical computation key, so
// identical queries land on one owner whose cache + singleflight dedup
// them cluster-wide.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(HeaderForwarded)
	if forwarded == "" && !n.admitTenant(w, r) {
		return
	}
	key, err := n.cfg.Server.CanonicalQueryKey(r)
	if err != nil {
		// Invalid query: the local server renders its canonical 400.
		n.local.ServeHTTP(w, r)
		return
	}
	n.route(w, r, key, forwarded, nil)
}

// handleStreamWindow routes index-addressed stream window reads (windows
// are deterministic across replicas fed the same script); "latest" is a
// replica-local freshness notion and serves here.
func (n *Node) handleStreamWindow(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(HeaderForwarded)
	if forwarded == "" && !n.admitTenant(w, r) {
		return
	}
	idx := r.URL.Query().Get("index")
	if idx == "" || idx == "latest" {
		n.serveLocal(w, r, nil)
		return
	}
	n.route(w, r, "stream/w="+idx, forwarded, nil)
}

// route serves key's request locally when this replica owns it, forwards
// toward the owner (with hedged failover) when a peer does, and answers
// 421 when a forwarded-in request was misrouted (the loop guard:
// forwarded work is never re-forwarded). Hedged re-routes are exempt from
// the ownership check — during a membership change replicas briefly hold
// different rings, and any healthy replica can compute any read.
func (n *Node) route(w http.ResponseWriter, r *http.Request, key, forwarded string, body []byte) {
	ring := n.ActiveRing()
	owner := ring.Lookup(key)
	if owner == n.id {
		n.serveLocal(w, r, body)
		return
	}
	if forwarded != "" {
		if r.Header.Get(HeaderHedge) != "" {
			n.serveLocal(w, r, body)
			return
		}
		n.inst.Misrouted.Inc()
		writeError(w, http.StatusMisdirectedRequest, fmt.Errorf(
			"clusterserve: replica %s does not own %q (owner %s, forwarded by %s)", n.id, key, owner, forwarded))
		return
	}
	if n.forwardHedged(w, r, ring, key, body) {
		return
	}
	// Every candidate is unreachable: compute locally rather than fail
	// the query. Cluster-wide dedup is suspended for exactly the outage.
	n.inst.ForwardErrors.Inc()
	n.serveLocal(w, r, body)
}

// serveLocal runs the request on the local attrserver under the
// queue-depth bound. body, when non-nil, replaces the (already consumed)
// request body.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if !n.acquireSlot() {
		n.shed(w, "queue-depth", n.cfg.Admission.RetryAfter)
		return
	}
	defer n.releaseSlot()
	n.inst.Local.Inc()
	if body != nil {
		r = rewound(r, body)
	}
	n.local.ServeHTTP(w, r)
}

// deltaKey is the ring key for demand deltas: the current config
// fingerprint plus the tenant, so each tenant's updates serialize at one
// owner per schedule generation.
func deltaKey(fp uint32, tenant int) string {
	return fmt.Sprintf("delta/cfg=%08x/t=%d", fp, tenant)
}

// maxDeltaBody bounds delta request bodies, mirroring the attrserver's
// own MaxBytesReader limit.
const maxDeltaBody = 64 << 10

// handleDelta routes POST /v1/demand/delta by (fingerprint, tenant).
// What-ifs answer at the owner; commits apply at the owner and replicate
// synchronously to every peer, so every replica's config fingerprint
// converges. Forward failures answer 502 — a local fallback could double-
// apply a commit the owner already took.
func (n *Node) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDeltaBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("clusterserve: reading delta body: %w", err))
		return
	}
	if len(body) > maxDeltaBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("clusterserve: delta body exceeds %d bytes", maxDeltaBody))
		return
	}
	if origin := r.Header.Get(HeaderReplicate); origin != "" {
		stamp, err := strconv.ParseUint(r.Header.Get(HeaderCommitStamp), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"clusterserve: replicated commit without a valid %s header: %w", HeaderCommitStamp, err))
			return
		}
		// Replicated applies skip the queue bound so replicas cannot
		// diverge under load, and never re-broadcast.
		n.inst.Local.Inc()
		_, rec := n.applyReplicated(stamp, origin, body)
		rec.flushTo(w)
		return
	}
	forwarded := r.Header.Get(HeaderForwarded)
	if forwarded == "" && !n.admitTenant(w, r) {
		return
	}
	var req struct {
		Tenant int  `json:"tenant"`
		Commit bool `json:"commit"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		// Malformed body: the local server renders its canonical 400.
		n.local.ServeHTTP(w, rewound(r, body))
		return
	}
	ring := n.ActiveRing()
	key := deltaKey(n.cfg.Server.Fingerprint(), req.Tenant)
	owner := ring.Lookup(key)
	hedged := r.Header.Get(HeaderHedge) != ""
	if owner == n.id || hedged {
		// Hedged deltas apply here even when our ring disagrees: the
		// sender's owner was unreachable, and the per-tenant commit order
		// makes an acting owner's stamp converge everywhere.
		n.applyDelta(w, r, body, req.Tenant, req.Commit)
		return
	}
	if forwarded != "" {
		n.inst.Misrouted.Inc()
		writeError(w, http.StatusMisdirectedRequest, fmt.Errorf(
			"clusterserve: replica %s does not own tenant %d deltas (owner %s, forwarded by %s)", n.id, req.Tenant, owner, forwarded))
		return
	}
	if !n.forwardDeltaHedged(w, r, ring, key, body) {
		n.inst.ForwardErrors.Inc()
		writeError(w, http.StatusBadGateway, fmt.Errorf("clusterserve: delta owner %s and successors unreachable", owner))
	}
}

// applyDelta runs an owner-side delta on the local attrserver. A what-if
// changes no state, so it takes no lock; a commit applies under commitMu,
// and if it succeeds it draws the next Lamport stamp, lands in the commit
// log, and broadcasts to every peer.
func (n *Node) applyDelta(w http.ResponseWriter, r *http.Request, body []byte, tenant int, commit bool) {
	if !n.acquireSlot() {
		n.shed(w, "queue-depth", n.cfg.Admission.RetryAfter)
		return
	}
	defer n.releaseSlot()
	n.inst.Local.Inc()
	if !commit {
		n.local.ServeHTTP(w, rewound(r, body))
		return
	}
	rec := &bufferedResponse{header: http.Header{}}
	var (
		entry CommitEntry
		seq   uint64
	)
	func() {
		n.commitMu.Lock()
		defer n.commitMu.Unlock()
		n.local.ServeHTTP(rec, rewound(r, body))
		if rec.status == http.StatusOK {
			n.lamport++
			entry = CommitEntry{Stamp: n.lamport, Origin: n.id, Body: body}
			n.lastCommit[tenant] = commitMark{stamp: entry.Stamp, origin: n.id}
			seq = n.clog.Append(entry)
		}
	}()
	if rec.status == http.StatusOK {
		n.replicate(seq, entry)
	}
	rec.flushTo(w)
}

// applyReplicated applies one committed delta received from a peer — live
// replication and sync replay share this path — under the per-tenant
// commit order: the entry applies only if (stamp, origin) is newer than
// the tenant's last applied commit, so duplicates and stale replays are
// acknowledged without touching state (and without growing the log, which
// is what keeps mutual catch-up pulls from amplifying each other). The
// clock still advances past every stamp seen.
func (n *Node) applyReplicated(stamp uint64, origin string, body []byte) (bool, *bufferedResponse) {
	var req struct {
		Tenant int `json:"tenant"`
	}
	// Best-effort: a malformed body fails at the attrserver with its
	// canonical 400 below.
	_ = json.Unmarshal(body, &req)
	rec := &bufferedResponse{header: http.Header{}}
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	if stamp > n.lamport {
		n.lamport = stamp
	}
	if mark, ok := n.lastCommit[req.Tenant]; ok && !mark.before(stamp, origin) {
		writeJSON(rec, http.StatusOK, map[string]any{"committed": true, "superseded": true})
		return false, rec
	}
	r, err := http.NewRequest(http.MethodPost, "/v1/demand/delta", bytes.NewReader(body))
	if err != nil {
		writeError(rec, http.StatusInternalServerError, err)
		return false, rec
	}
	r.Header.Set("Content-Type", "application/json")
	n.local.ServeHTTP(rec, r)
	if rec.status == http.StatusOK {
		n.lastCommit[req.Tenant] = commitMark{stamp: stamp, origin: origin}
		n.clog.Append(CommitEntry{Stamp: stamp, Origin: origin, Body: body})
		return true, rec
	}
	return false, rec
}

// replicate broadcasts the commit at log sequence seq to every non-Down
// peer — Warming peers included, so their catch-up misses nothing. A peer
// the commit does not reach, because it is Down, the send fails or the
// peer does not answer within a sync pull's deadline, is marked for a
// re-send once a probe finds it replicable again: a peer that accepts and
// then stalls must not hold the commit, its handler or its queue slot.
// The per-tenant commit order at receivers lets concurrent commits for
// different tenants interleave in any order and still converge.
func (n *Node) replicate(seq uint64, e CommitEntry) {
	for _, id := range n.ring.peers {
		if _, ok := n.urls[id]; !ok {
			continue
		}
		sent := n.member.replicable(id)
		if sent {
			ctx, cancel := context.WithTimeout(context.Background(), n.member.exchangeTimeout())
			sent = n.push(ctx, id, e)
			cancel()
		}
		if !sent {
			n.member.undelivered(id, seq)
		}
	}
}

// resend pushes peer every entry of our commit log from sequence from to
// the current end. Each entry keeps its own stamp and origin, so the
// receiver's per-tenant guard skips what it already has. The first
// failure marks that entry again for the next probe. The pushes share a
// sync pull's deadline: the calling probe loop must not hang on a peer
// that accepts and then stalls.
func (n *Node) resend(peer string, from uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), n.member.exchangeTimeout())
	defer cancel()
	entries, _ := n.clog.Since(from-1, int(n.clog.Len()-from+1))
	for i, e := range entries {
		if !n.push(ctx, peer, e) {
			n.member.undelivered(peer, from+uint64(i))
			return
		}
	}
}

// push sends one commit-log entry to peer as a replicated commit and
// reports whether the peer acknowledged it.
func (n *Node) push(ctx context.Context, peer string, e CommitEntry) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.urls[peer]+"/v1/demand/delta", bytes.NewReader(e.Body))
	if err != nil {
		n.inst.ReplicationErrors.Inc()
		return false
	}
	req.Header.Set(HeaderReplicate, e.Origin)
	req.Header.Set(HeaderCommitStamp, strconv.FormatUint(e.Stamp, 10))
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		n.inst.ReplicationErrors.Inc()
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.inst.ReplicationErrors.Inc()
		return false
	}
	n.inst.Replications.Inc()
	return true
}

// handleInfo serves the cluster introspection endpoint.
func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	tracked := 0
	if n.admit != nil {
		tracked = n.admit.len()
	}
	members := make(map[string]string, len(n.urls))
	for id, st := range n.MemberStates() {
		members[id] = st.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replica":     n.id,
		"peers":       n.ring.Peers(),
		"active":      n.ActiveRing().Peers(),
		"members":     members,
		"commit_seq":  n.clog.Len(),
		"vnodes":      n.ring.VNodes(),
		"fingerprint": fmt.Sprintf("%08x", n.cfg.Server.Fingerprint()),
		"queue_depth": n.queueDepth.Load(),
		"admission": map[string]any{
			"rate":            n.cfg.Admission.Rate,
			"burst":           n.cfg.Admission.Burst,
			"max_tenants":     n.cfg.Admission.MaxTenants,
			"max_queue":       n.cfg.Admission.MaxQueue,
			"tracked_tenants": tracked,
		},
	})
}

// admitTenant charges the request to its tenant's token bucket, shedding
// with the bucket's exact Retry-After when dry.
func (n *Node) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	if n.admit == nil {
		return true
	}
	ok, wait := n.admit.allow(tenantKey(r))
	if !ok {
		n.shed(w, "tenant-rate", wait)
	}
	return ok
}

// tenantKey identifies the requesting tenant for admission: the explicit
// header first, then the tenant query parameter, then the remote host.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// shed answers 429 with both Retry-After forms and counts the reason.
func (n *Node) shed(w http.ResponseWriter, reason string, wait time.Duration) {
	n.inst.Shed.With(reason).Inc()
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	ms := wait.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set(HeaderRetryAfterMs, strconv.FormatInt(ms, 10))
	writeError(w, http.StatusTooManyRequests, fmt.Errorf("clusterserve: %s limit exceeded, retry in %v", reason, wait))
}

// acquireSlot claims a local-compute slot, failing when MaxQueue is set
// and saturated.
func (n *Node) acquireSlot() bool {
	d := n.queueDepth.Add(1)
	if n.queueMax > 0 && d > n.queueMax {
		n.queueDepth.Add(-1)
		return false
	}
	n.inst.QueueDepth.Set(float64(d))
	return true
}

func (n *Node) releaseSlot() {
	n.inst.QueueDepth.Set(float64(n.queueDepth.Add(-1)))
}

// rewound returns r with body re-installed, for handlers that consumed or
// need to replay it.
func rewound(r *http.Request, body []byte) *http.Request {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	return r2
}

// bufferedResponse captures a handler's response so the caller can act on
// the status (replicate on 200) before releasing it to the client.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	keys := make([]string, 0, len(b.header))
	for k := range b.header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range b.header[k] {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
