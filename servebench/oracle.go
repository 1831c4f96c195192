package main

import (
	"fmt"
	"math"
	"sort"

	"fairco2/internal/schedule"
)

// The oracle recomputes every served answer from the schedule's workload
// fields alone. It shares no code with the program beyond the
// schedule.Workload record: each method is written out from its
// definition in the paper, by a different route than the program takes.
//
//	ground-truth         brute-force Shapley over the coalition-peak game
//	fair-co2             Eq. 7's airport-game closed form at one level
//	rup                  core-seconds
//	demand-proportional  demand squared

// Method names the query endpoints accept.
const (
	methodGroundTruth = "ground-truth"
	methodFairCO2     = "fair-co2"
	methodRUP         = "rup"
	methodDemand      = "demand-proportional"
)

var methodNames = []string{methodGroundTruth, methodFairCO2, methodRUP, methodDemand}

// Budget and price the service runs with: the daemon's -budget default and
// attrserver.DefaultConfig's price.
const (
	budgetGrams   = 1e6
	pricePerTonne = 100.0
)

// relTol bounds disagreement with the oracle. Answers are float64 sums
// taken in a different order, so they agree to a few ulps times the number
// of terms; 1e-9 of the budget is far looser than that and far tighter
// than any real error.
const relTol = 1e-9

// period is a slice window [start, end).
type period struct{ start, end int }

func (p period) String() string { return fmt.Sprintf("%d:%d", p.start, p.end) }

// clipped is one workload's presence inside a period.
type clipped struct {
	id         int
	cores      float64
	start, end int // slice range relative to the period start
}

// clip returns the workloads running inside p, in schedule order.
func clip(s *schedule.Schedule, p period) []clipped {
	var out []clipped
	for _, w := range s.Workloads {
		lo, hi := max(w.Start, p.start), min(w.Start+w.Duration, p.end)
		if lo < hi {
			out = append(out, clipped{id: w.ID, cores: float64(w.Cores), start: lo - p.start, end: hi - p.start})
		}
	}
	return out
}

// periodBudget is the static budget prorated to p's share of the window.
func periodBudget(s *schedule.Schedule, p period) float64 {
	return budgetGrams * float64(p.end-p.start) / float64(s.Slices)
}

// oracleAnswer is the expected attribution of one (method, period): the
// active workload IDs and their grams.
type oracleAnswer struct {
	budget float64
	ids    []int
	grams  []float64
}

// gramsOf returns tenant's grams (0 when it does not run in the period).
func (a *oracleAnswer) gramsOf(tenant int) float64 {
	for i, id := range a.ids {
		if id == tenant {
			return a.grams[i]
		}
	}
	return 0
}

// expect computes the oracle answer for method over period p of s.
func expect(method string, s *schedule.Schedule, p period) (*oracleAnswer, error) {
	ws := clip(s, p)
	if len(ws) == 0 {
		return nil, fmt.Errorf("oracle: period %v has no running workloads", p)
	}
	slices := p.end - p.start
	step := float64(s.SliceDuration)
	budget := periodBudget(s, p)
	demand := make([]float64, slices)
	for _, w := range ws {
		for t := w.start; t < w.end; t++ {
			demand[t] += w.cores
		}
	}
	var grams []float64
	switch method {
	case methodGroundTruth:
		grams = bruteForceShapley(ws, slices, budget)
	case methodFairCO2:
		grams = byIntensity(ws, airportIntensity(demand, step, budget), step)
	case methodRUP:
		grams = coreSeconds(ws, budget)
	case methodDemand:
		grams = byIntensity(ws, demandSquaredIntensity(demand, step, budget), step)
	default:
		return nil, fmt.Errorf("oracle: unknown method %q", method)
	}
	ids := make([]int, len(ws))
	for i, w := range ws {
		ids[i] = w.id
	}
	return &oracleAnswer{budget: budget, ids: ids, grams: grams}, nil
}

// bruteForceShapley enumerates every coalition of the period's workloads.
// A coalition's value is its peak summed demand over the period's slices;
// workload i's Shapley value is the weighted sum of its marginal
// contributions v(S ∪ {i}) - v(S) over every S without i, with weight
// |S|! (n-|S|-1)! / n!. The values are scaled to the budget.
func bruteForceShapley(ws []clipped, slices int, budget float64) []float64 {
	n := len(ws)
	size := 1 << uint(n)
	// running[t] is the coalition mask of workloads that run in slice t.
	running := make([]int, slices)
	for i, w := range ws {
		for t := w.start; t < w.end; t++ {
			running[t] |= 1 << uint(i)
		}
	}
	// sum[S] is the summed cores of coalition S, built from S minus its
	// lowest member.
	sum := make([]float64, size)
	for s := 1; s < size; s++ {
		low := s & -s
		sum[s] = sum[s^low] + ws[lowIndex(low)].cores
	}
	value := make([]float64, size)
	for s := 1; s < size; s++ {
		peak := 0.0
		for _, r := range running {
			if d := sum[s&r]; d > peak {
				peak = d
			}
		}
		value[s] = peak
	}
	// weight[k] = k! (n-k-1)! / n!, by the recurrence
	// weight[k+1] = weight[k] * (k+1) / (n-k-1).
	weight := make([]float64, n)
	weight[0] = 1 / float64(n)
	for k := 0; k+1 < n; k++ {
		weight[k+1] = weight[k] * float64(k+1) / float64(n-k-1)
	}
	phi := make([]float64, n)
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		total := 0.0
		for s := 0; s < size; s++ {
			if s&bit == 0 {
				total += weight[popcount(s)] * (value[s|bit] - value[s])
			}
		}
		phi[i] = total
	}
	grand := value[size-1]
	grams := make([]float64, n)
	for i := range phi {
		grams[i] = phi[i] / grand * budget
	}
	return grams
}

func lowIndex(bit int) int {
	i := 0
	for bit > 1 {
		bit >>= 1
		i++
	}
	return i
}

func popcount(s int) int {
	c := 0
	for ; s != 0; s &= s - 1 {
		c++
	}
	return c
}

// airportIntensity is Fair-CO2's one-level Temporal Shapley signal (Eq. 7).
// Each slice is a player whose stand-alone value is its peak demand; the
// Shapley value of that peak (airport) game has the closed form
//
//	phi_(k) = sum_{j<=k} (p_(j) - p_(j-1)) / (m - j + 1)
//
// over the peaks sorted ascending. Slice t carries phi_t q_t / sum_j
// phi_j q_j of the budget, q_t being its resource-time, so its intensity
// is phi_t / sum_j phi_j q_j * budget.
func airportIntensity(demand []float64, step, budget float64) []float64 {
	m := len(demand)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demand[order[a]] < demand[order[b]] })
	phi := make([]float64, m)
	acc, prev := 0.0, 0.0
	for j, t := range order {
		acc += (demand[t] - prev) / float64(m-j)
		prev = demand[t]
		phi[t] = acc
	}
	denom := 0.0
	for t := range demand {
		denom += phi[t] * demand[t] * step
	}
	intensity := make([]float64, m)
	for t := range demand {
		if demand[t] > 0 {
			intensity[t] = phi[t] / denom * budget
		}
	}
	return intensity
}

// demandSquaredIntensity makes intensity proportional to demand:
// intensity_t = d_t / (sum_j d_j^2 * step) * budget.
func demandSquaredIntensity(demand []float64, step, budget float64) []float64 {
	sq := 0.0
	for _, d := range demand {
		sq += d * d
	}
	intensity := make([]float64, len(demand))
	for t, d := range demand {
		intensity[t] = d / (sq * step) * budget
	}
	return intensity
}

// byIntensity charges each workload its cores times the intensity of
// every slice it runs in.
func byIntensity(ws []clipped, intensity []float64, step float64) []float64 {
	grams := make([]float64, len(ws))
	for i, w := range ws {
		for t := w.start; t < w.end; t++ {
			grams[i] += w.cores * intensity[t] * step
		}
	}
	return grams
}

// coreSeconds splits the budget by each workload's cores x slices.
func coreSeconds(ws []clipped, budget float64) []float64 {
	total := 0.0
	for _, w := range ws {
		total += w.cores * float64(w.end-w.start)
	}
	grams := make([]float64, len(ws))
	for i, w := range ws {
		grams[i] = w.cores * float64(w.end-w.start) / total * budget
	}
	return grams
}

// near reports whether got agrees with want to relTol of scale.
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= relTol*scale
}
