package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

// Operation types, as the run reports its attempted and failed counts.
const (
	opGet    = "get"
	opWhatif = "whatif"
	opCommit = "commit"
)

var opTypes = []string{opGet, opWhatif, opCommit}

type opCount struct{ attempted, failed int }

// Shape of the workloads.
const (
	// sequenceLen is the length of each pre-drawn dashboard request
	// sequence; a client cycles through it.
	sequenceLen = 1 << 14
	// minColdGets is the fewest GETs a cold-sweep run attempts: enough
	// that even a 99th percentile would leave ten samples beyond it.
	minColdGets = 1000
	// Each cluster-write round commits one edit, asks whatifsPerRound
	// what-ifs (all fair-co2 but the last, ground-truth) and reads
	// readsPerEntry times through each of the three replicas. This mix
	// is assumed, not measured: no trace of attribution traffic exists
	// to take it from. It sets how many reads miss after each commit.
	whatifsPerRound = 4
	readsPerEntry   = 64
	// Every workload ends each phase with probe rounds of one commit and
	// whatifsPerRound what-ifs, so that what-if and commit latency are
	// measured on every workload, and on cluster-write over 15 commits a
	// fleet rather than the 7 of its rounds.
	hotProbeRounds     = 30
	coldProbeRounds    = 8
	clusterProbeRounds = 8
	// hot-read and cluster-write split their run evenly over two decks of
	// schedules, so the popular keys are drawn ten times per run.
	decksPerRun = 2
	// clusterRoundSeconds is about how long a cluster-write round takes on
	// the reference host (README). Each fleet runs a fixed number of rounds
	// sized from it, not a fixed time: every commit leaves the previous
	// generation's answers in the cache until they expire, so a fleet's
	// heap grows with the rounds it ran, and heap_mib must not move when
	// rounds get faster.
	clusterRoundSeconds = 0.45
)

// pass runs a workload's phases once, untraced or traced, and keeps what
// it measured.
type pass struct {
	opt    options
	tr     *tracer
	client *http.Client
	rng    *rand.Rand
	buf    bytes.Buffer // body buffer of the single-client phases

	ops       map[string]*opCount
	getMS     []float64
	readTime  time.Duration // GET phases, the query_rps denominator
	completed int           // operations completed in timed phases
	mem       memSample     // allocation and GC deltas over timed phases
	setups    []float64
	heaps     []float64
	problems  []string
	failures  int // failed operations reported to stderr so far

	// whatifMeds and commitMeds hold each service's median what-if and
	// commit latency. Commit costs grow 50-fold over a deck's shapes, so a
	// median pooled over services would fall in the tail of the cheap
	// shapes' edits; the median over services lands on the middle shape.
	whatifMeds, commitMeds []float64

	// layer holds counter deltas over the timed phases; readLayer those
	// over GET phases alone (cluster-write: process-wide counters, traced
	// passes only).
	layer, readLayer counters
	// Traced passes also keep, per what-if, the table patches the
	// process-wide counter saw, and each phase's edits for the replay.
	patches []float64
	edits   []editLog
	// deltaStats are the delta blocks of every what-if answer.
	deltaStats [][2]float64
}

// editLog is one phase's starting schedule and the edits sent to it.
type editLog struct {
	initial *schedule.Schedule
	edits   []edit
}

func newPass(opt options, tr *tracer) *pass {
	p := &pass{
		opt:       opt,
		tr:        tr,
		client:    newClient(),
		rng:       rand.New(rand.NewSource(opt.seed)),
		ops:       map[string]*opCount{},
		layer:     counters{},
		readLayer: counters{},
	}
	for _, t := range opTypes {
		p.ops[t] = &opCount{}
	}
	return p
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// answers keeps the distinct answer bodies of each (query, schedule
// generation) seen in a phase, for checking once the phase is over.
type answers map[answerKey]map[string]struct{}

type answerKey struct{ q, gen int }

func (a answers) add(k answerKey, body []byte) {
	set := a[k]
	if set == nil {
		set = map[string]struct{}{}
		a[k] = set
	}
	if _, ok := set[string(body)]; !ok {
		set[string(body)] = struct{}{}
	}
}

// loadClient is one closed loop's private state.
type loadClient struct {
	buf     bytes.Buffer
	lat     []float64
	ops     opCount
	answers answers
	errs    []string
}

// exchange sends one request and reads the whole body into buf. It
// returns the latency from send to body read, and an error for a
// transport failure or a status other than 200. A traced request also
// gets its client span.
func (p *pass) exchange(buf *bytes.Buffer, method, url, body string, rid int64, name string) (time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	var spanStart time.Duration
	if p.tr != nil {
		spanStart = p.tr.now()
	}
	start := time.Now()
	resp, err := p.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	if p.tr != nil {
		p.tr.record(span{name: name, rid: rid, start: spanStart, end: p.tr.now()})
	}
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return lat, nil
}

// noteFailure reports a failed operation on stderr (the first few only).
func (p *pass) noteFailure(op, what string, err error) {
	p.ops[op].failed++
	if p.failures++; p.failures <= 5 {
		fmt.Fprintf(os.Stderr, "servebench: %s %s failed: %v\n", op, what, err)
	}
}

// timed brackets one timed phase: the clock, counters and allocations.
type timed struct {
	p      *pass
	regs   []*metrics.Registry
	before counters
	mem    memSample
	start  time.Time
}

func (p *pass) begin(svcs ...*service) *timed {
	t := &timed{p: p, regs: []*metrics.Registry{metrics.Default()}}
	for _, svc := range svcs {
		t.regs = append(t.regs, svc.reg)
	}
	t.before = gather(t.regs...)
	p.tr.recording(true)
	t.mem = readMem()
	t.start = time.Now()
	return t
}

// end closes the phase, crediting it with completed operations, and
// returns its counter deltas.
func (t *timed) end(completed int) counters {
	m := readMem()
	t.p.tr.recording(false)
	delta := gather(t.regs...).sub(t.before)
	p := t.p
	p.completed += completed
	p.mem.mallocs += m.mallocs - t.mem.mallocs
	p.mem.bytes += m.bytes - t.mem.bytes
	p.mem.gcs += m.gcs - t.mem.gcs
	p.mem.pauseNs += m.pauseNs - t.mem.pauseNs
	p.layer.add(delta)
	return delta
}

// teardown stops the services of a phase whose operations are all done,
// recording the live heap each held: the forced-GC heap with them up
// minus the same once they are stopped, with nothing allocated between
// the two, so that the benchmark's own records do not count.
func (p *pass) teardown(svcs ...*service) {
	for _, svc := range svcs {
		p.whatifMeds = append(p.whatifMeds, median(svc.whatifMS))
		p.commitMeds = append(p.commitMeds, median(svc.commitMS))
	}
	heapUp := liveHeap()
	n := float64(len(svcs))
	for i, svc := range svcs {
		svc.close()
		svcs[i] = nil // unreachable before the second measurement
	}
	p.client.CloseIdleConnections()
	down := liveHeap()
	p.heaps = append(p.heaps, (float64(heapUp)-float64(down))/n/(1<<20))
}

// setup builds the n services of one phase and times them as one set-up,
// from the first constructor call until every service is ready and warm.
func (p *pass) setup(n int, build func(i int) (*service, error)) ([]*service, error) {
	start := time.Now()
	svcs := make([]*service, 0, n)
	for i := 0; i < n; i++ {
		svc, err := build(i)
		if err == nil {
			if err = svc.ready(p.client); err != nil {
				svc.close()
			}
		}
		if err != nil {
			for _, svc := range svcs {
				svc.close()
			}
			return nil, err
		}
		svcs = append(svcs, svc)
	}
	p.setups = append(p.setups, time.Since(start).Seconds())
	return svcs, nil
}

// warm computes every non-empty (method, period) answer in process, eight
// at a time, before a hot-read phase.
func warm(svc *service, s *schedule.Schedule) error {
	h := svc.replicas[0].srv.Handler()
	type key struct {
		m string
		p period
	}
	keys := make(chan key)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, query{endpoint: "attribution", method: k.m, period: k.p, tenant: -1}.path(), nil)
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					select {
					case errs <- fmt.Errorf("warming %s %v: status %d", k.m, k.p, rec.Code):
					default:
					}
				}
			}
		}()
	}
	for _, m := range methodNames {
		for _, per := range periods(s) {
			keys <- key{m, per}
		}
	}
	close(keys)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// hotRead: one warmed replica per deck schedule, two clients each
// sending skewed dashboard GETs for an equal share of the run.
func hotRead(p *pass) error {
	deck, err := drawDecks(p.rng, decksPerRun)
	if err != nil {
		return err
	}
	share := time.Duration(p.opt.seconds * float64(time.Second) / float64(len(deck)))
	for _, s := range deck {
		qs := dashboardQueries(s, p.rng)
		seqs := [2][]int{skewedSequence(p.rng, len(qs), sequenceLen), skewedSequence(p.rng, len(qs), sequenceLen)}
		svcs, err := p.setup(1, func(int) (*service, error) {
			svc, err := startSingle(s, p.tr)
			if err != nil {
				return nil, err
			}
			if err := warm(svc, s); err != nil {
				svc.close()
				return nil, err
			}
			return svc, nil
		})
		if err != nil {
			return err
		}
		svc := svcs[0]
		urls := make([]string, len(qs))
		for i, q := range qs {
			urls[i] = svc.replicas[0].url + q.path()
		}

		clients := [2]*loadClient{}
		t := p.begin(svc)
		deadline := t.start.Add(share)
		var wg sync.WaitGroup
		for c := range clients {
			lc := &loadClient{answers: answers{}}
			clients[c] = lc
			wg.Add(1)
			go func(seq []int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					qi := seq[i%len(seq)]
					rid, url := p.tr.newRequest(urls[qi])
					lc.ops.attempted++
					lat, err := p.exchange(&lc.buf, http.MethodGet, url, "", rid, spanGet)
					if err != nil {
						lc.ops.failed++
						if len(lc.errs) < 5 {
							lc.errs = append(lc.errs, fmt.Sprintf("%s: %v", qs[qi].path(), err))
						}
						continue
					}
					lc.lat = append(lc.lat, ms(lat))
					lc.answers.add(answerKey{q: qi}, lc.buf.Bytes())
				}
			}(seqs[c])
		}
		wg.Wait()
		elapsed := time.Since(t.start)
		gets := 0
		for _, lc := range clients {
			gets += lc.ops.attempted - lc.ops.failed
		}
		delta := t.end(gets)
		p.readTime += elapsed
		p.readLayer.add(delta)
		for _, lc := range clients {
			p.ops[opGet].attempted += lc.ops.attempted
			p.ops[opGet].failed += lc.ops.failed
			for _, e := range lc.errs {
				fmt.Fprintln(os.Stderr, "servebench: get failed:", e)
			}
			p.getMS = append(p.getMS, lc.lat...)
		}
		if n := delta["fairco2_attrserver_computations_total"]; n != 0 {
			p.problem("hot-read: %v computations in the timed phase, want none", n)
		}
		gens := []*schedule.Schedule{s}
		log := editLog{initial: s}
		p.probe(svc, &gens, &log, hotProbeRounds)
		p.teardown(svc)
		p.checkGets(qs, gens, clients[0].answers, clients[1].answers)
		p.edits = append(p.edits, log)
	}
	return nil
}

// coldSweep: whole decks of schedules, each on a freshly built replica;
// one set-up builds the deck's replicas. One client sweeps every (method,
// period) key of the deck once, the deck's replicas interleaved in one
// shuffled order so that the expensive keys of the largest schedule
// spread over the sweep, until the run has lasted its seconds and has
// attempted minColdGets GETs.
func coldSweep(p *pass) error {
	attempted := 0
	for p.readTime.Seconds() < p.opt.seconds || attempted < minColdGets {
		deck, err := drawDecks(p.rng, 1)
		if err != nil {
			return err
		}
		type step struct{ replica, q int }
		var steps []step
		qss := make([][]query, len(deck))
		for i, s := range deck {
			qss[i] = sweepQueries(s, p.rng)
			for q := range qss[i] {
				steps = append(steps, step{i, q})
			}
		}
		svcs, err := p.setup(len(deck), func(i int) (*service, error) { return startSingle(deck[i], p.tr) })
		if err != nil {
			return err
		}
		p.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		logs := make([]answers, len(deck))
		for i := range logs {
			logs[i] = answers{}
		}

		t := p.begin(svcs...)
		done := 0
		for _, st := range steps {
			q := qss[st.replica][st.q]
			rid, url := p.tr.newRequest(svcs[st.replica].replicas[0].url + q.path())
			p.tr.inFlight(rid)
			p.ops[opGet].attempted++
			lat, err := p.exchange(&p.buf, http.MethodGet, url, "", rid, spanGet)
			if err != nil {
				p.noteFailure(opGet, q.path(), err)
				continue
			}
			done++
			p.getMS = append(p.getMS, ms(lat))
			logs[st.replica].add(answerKey{q: st.q}, p.buf.Bytes())
		}
		elapsed := time.Since(t.start)
		delta := t.end(done)
		p.readTime += elapsed
		p.readLayer.add(delta)
		attempted += len(steps)
		if n := delta["fairco2_attrserver_computations_total"]; n != float64(done) {
			p.problem("cold-sweep: %v computations for %d GETs, want one each", n, done)
		}
		gens := make([][]*schedule.Schedule, len(deck))
		elogs := make([]editLog, len(deck))
		for i, s := range deck {
			gens[i] = []*schedule.Schedule{s}
			elogs[i] = editLog{initial: s}
			p.probe(svcs[i], &gens[i], &elogs[i], coldProbeRounds)
		}
		p.teardown(svcs...)
		for i := range deck {
			p.checkGets(qss[i], gens[i], logs[i])
		}
		p.edits = append(p.edits, elogs...)
	}
	return nil
}

// clusterWrite: a three-replica fleet per deck schedule, driven by one
// client for a fixed number of rounds of a commit, what-ifs and skewed
// reads.
func clusterWrite(p *pass) error {
	deck, err := drawDecks(p.rng, decksPerRun)
	if err != nil {
		return err
	}
	rounds := max(1, int(p.opt.seconds/float64(len(deck))/clusterRoundSeconds+0.5))
	for _, s := range deck {
		qs := dashboardQueries(s, p.rng)
		seq := skewedSequence(p.rng, len(qs), sequenceLen)
		svcs, err := p.setup(1, func(int) (*service, error) { return startFleet(s, p.tr) })
		if err != nil {
			return err
		}
		svc := svcs[0]
		if fps := svc.fingerprints(); !sameFingerprints(fps) {
			p.problem("cluster-write: fleet starts with fingerprints %08x", fps)
		}
		gens := []*schedule.Schedule{s}
		elog := editLog{initial: s}
		deltas := []deltaOp{}
		reads := answers{}
		distinct := map[oracleKey]bool{}
		entries := make([]int, fleetSize*readsPerEntry)
		for i := range entries {
			entries[i] = i % fleetSize
		}

		t := p.begin(svc)
		done, pos := 0, 0
		for round := 0; round < rounds; round++ {
			done += p.editRound(svc, round%fleetSize, &gens, &elog, &deltas)
			p.rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			var before counters
			if p.tr != nil {
				before = gather(metrics.Default())
			}
			readStart := time.Now()
			for _, entry := range entries {
				qi := seq[pos%len(seq)]
				pos++
				q := qs[qi]
				rid, url := p.tr.newRequest(svc.replicas[entry].url + q.path())
				p.tr.inFlight(rid)
				p.ops[opGet].attempted++
				lat, err := p.exchange(&p.buf, http.MethodGet, url, "", rid, spanGet)
				if err != nil {
					p.noteFailure(opGet, q.path(), err)
					continue
				}
				done++
				p.getMS = append(p.getMS, ms(lat))
				reads.add(answerKey{q: qi, gen: len(gens) - 1}, p.buf.Bytes())
				distinct[oracleKey{method: q.method, period: q.period, gen: len(gens) - 1}] = true
			}
			p.readTime += time.Since(readStart)
			if p.tr != nil {
				p.readLayer.add(gather(metrics.Default()).sub(before))
			}
		}
		delta := t.end(done)
		if delta["fairco2_cluster_hedges_total"] == 0 && delta["fairco2_cluster_failovers_total"] == 0 {
			if n := delta["fairco2_attrserver_computations_total"]; n > float64(len(distinct)) {
				p.problem("cluster-write: %v computations for %d distinct (key, fingerprint) reads", n, len(distinct))
			}
		}
		p.checkDeltas(gens, deltas)
		p.probe(svc, &gens, &elog, clusterProbeRounds)
		p.teardown(svc)
		p.checkGets(qs, gens, reads)
		p.edits = append(p.edits, elog)
	}
	return nil
}

// probe ends a phase with rounds of one commit, through a rotating entry
// replica, and whatifsPerRound what-ifs; the answers are checked with the
// phase's.
func (p *pass) probe(svc *service, gens *[]*schedule.Schedule, elog *editLog, rounds int) {
	// Start from a collected heap, so the GET phase's garbage is not
	// collected during the probe.
	runtime.GC()
	p.tr.recording(true)
	defer p.tr.recording(false)
	deltas := []deltaOp{}
	for r := 0; r < rounds; r++ {
		p.editRound(svc, r%len(svc.replicas), gens, elog, &deltas)
	}
	p.checkDeltas(*gens, deltas)
}

// editRound sends one round of edits: a commit through replica
// commitEntry, then whatifsPerRound what-ifs, all fair-co2 but the last,
// ground-truth. Each what-if is asked through every replica in random
// order, so that in a fleet exactly one copy lands on its owner. It
// returns the number of operations completed.
func (p *pass) editRound(svc *service, commitEntry int, gens *[]*schedule.Schedule, elog *editLog, deltas *[]deltaOp) int {
	done := p.sendEdit(svc, commitEntry, drawEdit(p.rng, (*gens)[len(*gens)-1], "", true), gens, elog, deltas)
	for w := 0; w < whatifsPerRound; w++ {
		method := methodFairCO2
		if w == whatifsPerRound-1 {
			method = methodGroundTruth
		}
		e := drawEdit(p.rng, (*gens)[len(*gens)-1], method, false)
		for _, entry := range p.rng.Perm(len(svc.replicas)) {
			done += p.sendEdit(svc, entry, e, gens, elog, deltas)
		}
	}
	return done
}

// deltaOp is one what-if or commit answer, checked after its phase.
type deltaOp struct {
	e           edit
	gen         int // the schedule it applies to (what-if) or made (commit)
	fingerprint string
	body        []byte
}

// sendEdit posts one edit through replica entry and checks the
// fingerprints around it: a what-if leaves every replica's unchanged, and
// after a commit every replica reports one new fingerprint. It returns 1
// when the operation completed.
func (p *pass) sendEdit(svc *service, entry int, e edit, gens *[]*schedule.Schedule, elog *editLog, log *[]deltaOp) int {
	op, name := opWhatif, spanWhatif
	if e.commit {
		op, name = opCommit, spanCommit
	}
	before := svc.fingerprints()
	var applies float64
	if p.tr != nil && !e.commit {
		applies = gather(metrics.Default())["fairco2_shapley_delta_applies_total"]
	}
	rid, url := p.tr.newRequest(svc.replicas[entry].url + "/v1/demand/delta")
	p.tr.inFlight(rid)
	p.ops[op].attempted++
	lat, err := p.exchange(&p.buf, http.MethodPost, url, e.body(), rid, name)
	if err != nil {
		p.noteFailure(op, e.body(), err)
		return 0
	}
	elog.edits = append(elog.edits, e)
	after := svc.fingerprints()
	d := deltaOp{e: e, gen: len(*gens) - 1, body: bytes.Clone(p.buf.Bytes())}
	if e.commit {
		svc.commitMS = append(svc.commitMS, ms(lat))
		*gens = append(*gens, e.apply((*gens)[len(*gens)-1]))
		d.gen = len(*gens) - 1
		d.fingerprint = fmt.Sprintf("%08x", after[0])
		if !sameFingerprints(after) || after[0] == before[0] {
			p.problem("commit %s: fingerprints %08x -> %08x, want one new fingerprint on every replica", e.body(), before, after)
		}
	} else {
		svc.whatifMS = append(svc.whatifMS, ms(lat))
		if p.tr != nil {
			p.patches = append(p.patches, gather(metrics.Default())["fairco2_shapley_delta_applies_total"]-applies)
		}
		for i := range after {
			if after[i] != before[i] {
				p.problem("what-if %s moved fingerprints %08x -> %08x", e.body(), before, after)
				break
			}
		}
	}
	*log = append(*log, d)
	return 1
}

func sameFingerprints(fps []uint32) bool {
	for _, fp := range fps {
		if fp != fps[0] {
			return false
		}
	}
	return true
}

// oracleKey identifies one oracle answer within a phase.
type oracleKey struct {
	method string
	period period
	gen    int
}

// checkGets checks every recorded GET answer against the oracle of the
// schedule generation it was read at.
func (p *pass) checkGets(qs []query, gens []*schedule.Schedule, logs ...answers) {
	memo := map[oracleKey]*oracleAnswer{}
	for _, log := range logs {
		for k, bodies := range log {
			q := qs[k.q]
			ok := oracleKey{method: q.method, period: q.period, gen: k.gen}
			want := memo[ok]
			if want == nil {
				var err error
				if want, err = expect(q.method, gens[k.gen], q.period); err != nil {
					p.problem("%s: %v", q.path(), err)
					continue
				}
				memo[ok] = want
			}
			for body := range bodies {
				a, err := decodeAnswer([]byte(body))
				if err != nil {
					p.problem("%s: %v", q.path(), err)
					continue
				}
				for _, msg := range checkQuery(q, a, want) {
					p.problem("%s (generation %d): %s", q.path(), k.gen, msg)
				}
			}
		}
	}
}

// checkDeltas checks what-if answers against the oracle on the edited
// schedule and commit answers against the committed one.
func (p *pass) checkDeltas(gens []*schedule.Schedule, log []deltaOp) {
	for _, d := range log {
		method, sched := d.e.method, gens[d.gen]
		if d.e.commit {
			method = methodFairCO2
		} else {
			sched = d.e.apply(sched)
		}
		full := period{0, sched.Slices}
		want, err := expect(method, sched, full)
		if err != nil {
			p.problem("%s: %v", d.e.body(), err)
			continue
		}
		a, err := decodeAnswer(d.body)
		if err != nil {
			p.problem("%s: %v", d.e.body(), err)
			continue
		}
		q := query{endpoint: "attribution", method: method, period: full, tenant: -1}
		for _, msg := range checkQuery(q, a, want) {
			p.problem("%s: %s", d.e.body(), msg)
		}
		if a.Committed != d.e.commit {
			p.problem("%s: committed=%v", d.e.body(), a.Committed)
		}
		if d.e.commit && a.Fingerprint != d.fingerprint {
			p.problem("%s: answered fingerprint %s, replicas report %s", d.e.body(), a.Fingerprint, d.fingerprint)
		}
		if !d.e.commit {
			p.deltaStats = append(p.deltaStats, [2]float64{float64(a.Delta.Coalitions), float64(a.Delta.PeriodsRecomputed)})
		}
	}
}

var workloads = map[string]func(*pass) error{
	"hot-read":      hotRead,
	"cold-sweep":    coldSweep,
	"cluster-write": clusterWrite,
}
