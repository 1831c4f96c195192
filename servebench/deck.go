package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"fairco2/internal/schedule"
)

// deckShapes are the schedule shapes of one deck, as (workloads, slices).
// The workload counts are the 10th, 30th, 50th, 70th and 90th percentiles
// of the count that schedule.Generate draws under the paper's §6.3
// parameters with the 22-workload cap, and each slice count is the most
// common one at that workload count (both measured over 10,000 draws).
// Exact Shapley costs 2^n and a schedule of s slices has s(s+1)/2
// periods, so a run over raw draws would be timed on whichever rare large
// schedule the seed happens to hit; a deck fixes the cost mix and the
// number of keys, and lets the seed vary everything else.
var deckShapes = [][2]int{{7, 4}, {10, 6}, {12, 7}, {14, 8}, {17, 9}}

// paperCap is the paper's workload cap for the §6.3 generator.
const paperCap = 22

// drawDecks draws the given number of decks, each one schedule per deck
// shape from the paper's generator: the first draw with that shape.
func drawDecks(rng *rand.Rand, decks int) ([]*schedule.Schedule, error) {
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = paperCap
	var deck []*schedule.Schedule
	for i := 0; i < decks*len(deckShapes); i++ {
		n, slices := deckShapes[i%len(deckShapes)][0], deckShapes[i%len(deckShapes)][1]
		for tries := 0; ; tries++ {
			if tries == 1_000_000 {
				return nil, fmt.Errorf("no schedule with %d workloads over %d slices in %d draws", n, slices, tries)
			}
			s, err := schedule.Generate(gen, rng)
			if err != nil {
				return nil, err
			}
			if len(s.Workloads) == n && s.Slices == slices {
				deck = append(deck, s)
				break
			}
		}
	}
	return deck, nil
}

// cloneSchedule deep-copies s, so edits never alias a served schedule.
func cloneSchedule(s *schedule.Schedule) *schedule.Schedule {
	c := *s
	c.Workloads = append([]schedule.Workload(nil), s.Workloads...)
	return &c
}

// periods lists every slice window of s in which some workload runs.
func periods(s *schedule.Schedule) []period {
	var out []period
	for a := 0; a < s.Slices; a++ {
		for b := a + 1; b <= s.Slices; b++ {
			if len(clip(s, period{a, b})) > 0 {
				out = append(out, period{a, b})
			}
		}
	}
	return out
}

var endpoints = []string{"attribution", "share", "billing"}

// path renders q as the GET request path.
func (q query) path() string {
	p := "/v1/" + q.endpoint + "?method=" + q.method + "&period=" + q.period.String()
	if q.tenant >= 0 {
		p += "&tenant=" + strconv.Itoa(q.tenant)
	}
	return p
}

// dashboardQueries is the hot-read and cluster-write request universe:
// every endpoint, method and period, once without a tenant filter and once
// filtered to a random tenant, in shuffled order, so that a Zipf draw over
// the positions makes a random few of them popular.
func dashboardQueries(s *schedule.Schedule, rng *rand.Rand) []query {
	var qs []query
	for _, e := range endpoints {
		for _, m := range methodNames {
			for _, p := range periods(s) {
				qs = append(qs,
					query{endpoint: e, method: m, period: p, tenant: -1},
					query{endpoint: e, method: m, period: p, tenant: rng.Intn(len(s.Workloads))})
			}
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// zipfTheta is the popularity skew of dashboard traffic: query k of the
// shuffled universe is drawn with probability proportional to
// (k+1)^-zipfTheta. It is the zipfian constant of YCSB's standard
// workloads (Cooper et al., "Benchmarking Cloud Serving Systems with
// YCSB", SoCC 2010), borrowed because no trace of attribution queries
// exists to measure one from. The ten most popular queries draw 38-48 %
// of the load and the most popular one 13-16 %, by deck shape.
const zipfTheta = 0.99

// skewedSequence draws n positions into a universe of size u by Zipf rank.
func skewedSequence(rng *rand.Rand, u, n int) []int {
	cdf := make([]float64, u)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfTheta)
		cdf[k] = sum
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
	}
	return seq
}

// sweepQueries is one cold sweep: every (method, period) key of s once, in
// shuffled order, each through a random endpoint with or without a
// tenant filter.
func sweepQueries(s *schedule.Schedule, rng *rand.Rand) []query {
	var qs []query
	for _, m := range methodNames {
		for _, p := range periods(s) {
			tenant := -1
			if rng.Intn(2) == 0 {
				tenant = rng.Intn(len(s.Workloads))
			}
			qs = append(qs, query{endpoint: endpoints[rng.Intn(len(endpoints))], method: m, period: p, tenant: tenant})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// edit is one demand change sent to POST /v1/demand/delta: a what-if, or
// a commit when commit is set.
type edit struct {
	tenant, cores int
	method        string // what-ifs only; commits answer fair-co2
	commit        bool
}

func (e edit) body() string {
	if e.commit {
		return fmt.Sprintf(`{"tenant":%d,"cores":%d,"commit":true}`, e.tenant, e.cores)
	}
	return fmt.Sprintf(`{"tenant":%d,"cores":%d,"method":%q}`, e.tenant, e.cores, e.method)
}

// apply returns s with the edit applied.
func (e edit) apply(s *schedule.Schedule) *schedule.Schedule {
	c := cloneSchedule(s)
	c.Workloads[e.tenant].Cores = e.cores
	return c
}

// drawEdit picks a tenant and a new core count from the generator's core
// choices, always different from the tenant's current one, so every
// commit moves the config fingerprint.
func drawEdit(rng *rand.Rand, s *schedule.Schedule, method string, commit bool) edit {
	choices := schedule.DefaultGeneratorConfig().CoreChoices
	t := rng.Intn(len(s.Workloads))
	cores := s.Workloads[t].Cores
	for cores == s.Workloads[t].Cores {
		cores = choices[rng.Intn(len(choices))]
	}
	return edit{tenant: t, cores: cores, method: method, commit: commit}
}
