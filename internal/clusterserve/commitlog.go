package clusterserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// CommitEntry is one committed demand delta with its cluster-wide
// identity: a Lamport stamp drawn by the replica that first applied it
// (the owner or an acting owner during failover) and that replica's ID.
// The pair (Stamp, Origin) is unique — each origin increments its clock
// per commit — and totally ordered (stamp first, origin as tie-break), so
// replicas can discard duplicates and stale replays without coordination.
type CommitEntry struct {
	Stamp  uint64 `json:"stamp"`
	Origin string `json:"origin"`
	Body   []byte `json:"body"`
}

// CommitLog is a node's sequenced record of every committed demand delta
// it has applied — its own commits, replicated ones, and entries replayed
// during catch-up alike, in local apply order. Sequence numbers are
// 1-based and local to the node; a rejoining replica replays a peer's log
// from its per-peer cursor, and the per-tenant (stamp, origin) guard on
// apply makes the replay idempotent: entries a replica already has, or
// that a newer commit superseded, are skipped.
//
// The log is in-memory and unbounded: commits are control-plane events
// (a tenant changing its demand), orders of magnitude rarer than queries,
// so retention is bounded by commit rate, not request rate.
type CommitLog struct {
	mu      sync.RWMutex
	entries []CommitEntry
}

// Append records one committed delta and returns its sequence number. The
// body is copied, so callers may reuse their buffer.
func (l *CommitLog) Append(e CommitEntry) uint64 {
	e.Body = append([]byte(nil), e.Body...)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
	return uint64(len(l.entries))
}

// Len is the highest assigned sequence number.
func (l *CommitLog) Len() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.entries))
}

// Since returns up to max entries with sequence numbers after `after`,
// plus the cursor to pass next (the sequence number of the last entry
// returned, or `after` itself when the log holds nothing newer). max <= 0
// selects DefaultSyncPage.
func (l *CommitLog) Since(after uint64, max int) ([]CommitEntry, uint64) {
	if max <= 0 {
		max = DefaultSyncPage
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if after >= uint64(len(l.entries)) {
		return nil, after
	}
	end := after + uint64(max)
	if end > uint64(len(l.entries)) {
		end = uint64(len(l.entries))
	}
	return l.entries[after:end], end
}

// DefaultSyncPage bounds how many commit-log entries one sync response
// carries; a far-behind replica pages through with repeated requests.
const DefaultSyncPage = 256

// syncEntry is one commit on the sync wire: the entry identity plus the
// raw delta body.
type syncEntry struct {
	Stamp  uint64          `json:"stamp"`
	Origin string          `json:"origin"`
	Body   json.RawMessage `json:"body"`
}

// syncResponse is the GET /v1/cluster/sync wire shape. Entries are in log
// order; CommitSeq is the log length when the page was read.
type syncResponse struct {
	Replica   string      `json:"replica"`
	Since     uint64      `json:"since"`
	Next      uint64      `json:"next"`
	More      bool        `json:"more"`
	CommitSeq uint64      `json:"commit_seq"`
	Entries   []syncEntry `json:"entries"`
}

// handleSync serves the commit-log catch-up endpoint: entries after the
// `since` cursor, paged, so a rejoining replica replays the commits it
// missed before re-entering the ring. The caller names itself in `from`,
// and a Down caller is lifted to Warming before the log is read: every
// commit this node applies is then either in the page or replicated to
// the caller afterwards.
func (n *Node) handleSync(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		since = v
	}
	if n.member != nil {
		n.member.announce(r.URL.Query().Get("from"))
	}
	entries, next := n.clog.Since(since, DefaultSyncPage)
	head := n.clog.Len()
	resp := syncResponse{
		Replica:   n.id,
		Since:     since,
		Next:      next,
		More:      next < head,
		CommitSeq: head,
		Entries:   make([]syncEntry, len(entries)),
	}
	for i, e := range entries {
		resp.Entries[i] = syncEntry{Stamp: e.Stamp, Origin: e.Origin, Body: json.RawMessage(e.Body)}
	}
	writeJSON(w, http.StatusOK, resp)
}
