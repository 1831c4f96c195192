package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/clusterserve"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// Span names. Spans are recorded only by the benchmark, around calls into
// each layer's public surface: the client around each request, a wrapper
// around Server.Handler() or Node.Handler(), a transport under the
// cluster's hop client, and method wrappers installed through
// attrserver.Config.Methods.
const (
	spanGet       = "client.get"
	spanWhatif    = "client.whatif"
	spanCommit    = "client.commit"
	spanEntry     = "handler.entry"   // the replica the client called
	spanOwner     = "handler.owner"   // a replica a request was forwarded to
	spanReplica   = "handler.replica" // a replica applying a replicated commit
	spanForward   = "hop.forward"
	spanReplicate = "hop.replicate"
	computePrefix = "compute."
)

// ridParam carries a request's id across the forward hop, which copies the
// request URI but not arbitrary headers; the service ignores parameters it
// does not know.
const ridParam = "rid"

// span is one timed interval. Parents are not recorded: a span's parent is
// the smallest other span of the same request that contains it, resolved
// when the spans are written out.
type span struct {
	name       string
	rid        int64
	start, end time.Duration // since the tracer's epoch
	bytes      int64         // response bytes, handler spans only
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and installs no wrappers: the untraced run serves exactly what
// the daemon serves.
type tracer struct {
	epoch time.Time
	// current is the request id of the single closed-loop client's
	// in-flight request. Computations and replication run on goroutines
	// the request does not own, so their spans take the id from here;
	// workloads with two clients run neither.
	current atomic.Int64
	nextRID atomic.Int64
	// on gates recording to the timed phases and the delta probes, so
	// set-up and warm-up leave no spans.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recording turns span recording on or off.
func (t *tracer) recording(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// inFlight publishes the single client's in-flight request id.
func (t *tracer) inFlight(rid int64) {
	if t != nil {
		t.current.Store(rid)
	}
}

// newRequest reserves a request id; path gets it as a query parameter.
func (t *tracer) newRequest(path string) (int64, string) {
	if t == nil {
		return 0, path
	}
	rid := t.nextRID.Add(1)
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return rid, path + sep + ridParam + "=" + strconv.FormatInt(rid, 10)
}

// ridOf reads a request's id from its query, falling back to the
// in-flight request of the single client.
func (t *tracer) ridOf(r *http.Request) int64 {
	if v := r.URL.Query().Get(ridParam); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			return id
		}
	}
	return t.current.Load()
}

// traced reports whether a request belongs to a workload operation, not
// to the cluster's probes and catch-up pulls.
func traced(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/") && !strings.HasPrefix(r.URL.Path, "/v1/cluster")
}

// handler wraps a replica's handler with a span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !traced(r) {
			h.ServeHTTP(w, r)
			return
		}
		name := spanEntry
		switch {
		case r.Header.Get(clusterserve.HeaderReplicate) != "":
			name = spanReplica
		case r.Header.Get(clusterserve.HeaderForwarded) != "":
			name = spanOwner
		}
		rid := t.ridOf(r)
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r)
		t.record(span{name: name, rid: rid, start: start, end: t.now(), bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// hopClient is the cluster's client for forward and replication hops: the
// daemon's default (nil, a plain http.Client) when untraced, a span-
// recording transport over the same default transport when traced.
func (t *tracer) hopClient() *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Transport: &hopTransport{t: t, base: http.DefaultTransport}}
}

type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

// RoundTrip times a hop until its response body is closed, since the
// forwarding node streams the body after the headers arrive.
func (h *hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !traced(r) {
		return h.base.RoundTrip(r)
	}
	name := spanForward
	if r.Header.Get(clusterserve.HeaderReplicate) != "" {
		name = spanReplicate
	}
	s := span{name: name, rid: h.t.ridOf(r), start: h.t.now()}
	resp, err := h.base.RoundTrip(r)
	if err != nil {
		s.end = h.t.now()
		h.t.record(s)
		return resp, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, t: h.t, s: s}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// method wraps an attribution method with a compute span.
func (t *tracer) method(name string, m attribution.Method) attribution.Method {
	return &tracedMethod{name: computePrefix + name, m: m, t: t}
}

type tracedMethod struct {
	name string
	m    attribution.Method
	t    *tracer
}

func (tm *tracedMethod) Name() string { return tm.m.Name() }

func (tm *tracedMethod) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	start := tm.t.now()
	grams, err := tm.m.Attribute(s, budget)
	tm.t.record(span{name: tm.name, rid: tm.t.current.Load(), start: start, end: tm.t.now()})
	return grams, err
}

// request is one client request's spans, parents resolved.
type request struct {
	spans  []span
	parent []int // index into spans, -1 for the root
}

// requests groups the spans by request id and resolves parents: each
// span's parent is the shortest other span of its request that contains
// it.
func (t *tracer) requests() map[int64]*request {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]*request{}
	for _, s := range t.spans {
		r := out[s.rid]
		if r == nil {
			r = &request{}
			out[s.rid] = r
		}
		r.spans = append(r.spans, s)
	}
	for _, r := range out {
		// Longest first, so a contained span sorts after its container.
		sort.SliceStable(r.spans, func(i, j int) bool {
			di, dj := r.spans[i].end-r.spans[i].start, r.spans[j].end-r.spans[j].start
			if di != dj {
				return di > dj
			}
			return r.spans[i].start < r.spans[j].start
		})
		r.parent = make([]int, len(r.spans))
		for i, s := range r.spans {
			r.parent[i] = -1
			for j := i - 1; j >= 0; j-- {
				if p := r.spans[j]; p.start <= s.start && s.end <= p.end {
					r.parent[i] = j
					break
				}
			}
		}
	}
	return out
}

// find returns the index of the first span named name, or -1.
func (r *request) find(name string) int {
	for i, s := range r.spans {
		if s.name == name {
			return i
		}
	}
	return -1
}

// dur is span i's length in milliseconds.
func (r *request) dur(i int) float64 { return ms(r.spans[i].end - r.spans[i].start) }

// self is span i's length minus its children's, in milliseconds.
func (r *request) self(i int) float64 {
	d := r.spans[i].end - r.spans[i].start
	for j, p := range r.parent {
		if p == i {
			d -= r.spans[j].end - r.spans[j].start
		}
	}
	return ms(d)
}

// hasChild reports whether span i has a child whose name has the prefix.
func (r *request) hasChild(i int, prefix string) bool {
	for j, p := range r.parent {
		if p == i && strings.HasPrefix(r.spans[j].name, prefix) {
			return true
		}
	}
	return false
}

// write saves every span, gzipped, as a tab-separated line: request id,
// span index within the request, parent index, name, start and end in
// microseconds since the run began, and response bytes.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "rid\tspan\tparent\tname\tstart_us\tend_us\tbytes")
	reqs := t.requests()
	ids := make([]int64, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := reqs[id]
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", id, i, r.parent[i], s.name, s.start.Microseconds(), s.end.Microseconds(), s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
