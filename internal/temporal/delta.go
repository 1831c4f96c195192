package temporal

import (
	"errors"
	"fmt"
	"math"

	"fairco2/internal/checkpoint"
	"fairco2/internal/shapley"
	"fairco2/internal/timeseries"
	"fairco2/internal/units"
)

// Incremental delta re-attribution for the Temporal Shapley signal. A
// SignalDelta owns a built intensity signal plus, per top-level period, a
// CRC-32 fingerprint of the period's demand bins (the same
// checkpoint.Float64sCRC family the Shapley delta engine and the
// attribution config fingerprint use) and the period's attributed carbon
// share.
// Update re-evaluates only the periods whose attribution can actually have
// moved.
//
// The coupling is subtler than it looks: every top-level share is
//
//	share_k = phi_k * q_k / sum_j(phi_j * q_j) * budget
//
// so a change inside ONE period moves the shared denominator and thereby
// every other period's share — a single-bin edit generally forces full
// re-attribution, and no delta engine can avoid that without changing the
// result. What a delta CAN skip, bit-for-bit safely, is any period whose
// demand bins are bitwise-unchanged AND whose recomputed share is
// bitwise-equal to its previous share: the sub-attribution below a period
// is a pure function of exactly those two inputs. That condition holds for
// the updates the attribution service actually replays — volume- and
// peak-preserving intraperiod reshapes (integer-valued demand), and reverts
// of a previous what-if — which re-attribute one period instead of all of
// them. Fingerprints are a fast reject only; equality is always confirmed
// by comparing the raw Float64 bits, so a CRC collision cannot corrupt the
// signal.
//
// A SignalDelta is not safe for concurrent use. Steady-state updates
// perform no heap allocation (the race_off AllocsPerRun test pins this):
// the recursion runs through a preallocated per-level arena and the
// fingerprints through a preallocated encode buffer.
//
// No program serves from a SignalDelta: the attribution service answers
// demand edits by attributing an edited schedule afresh, which costs a
// few microseconds at served sizes. SignalDelta stays, with its suites,
// benchmarks and CI gate, only because servebench's per-layer replay
// (replayDeltas) times it, until a change to the benchmark drops that
// replay.

// ErrMisaligned reports an update series that does not share the built
// signal's start, step and length.
var ErrMisaligned = errors.New("temporal: update series misaligned with the built signal")

// DeltaStats reports what one delta update did.
type DeltaStats struct {
	// PeriodsRecomputed counts top-level periods re-attributed;
	// PeriodsSkipped counts those proven bitwise-unchanged. They sum to
	// the schedule's top-level period count.
	PeriodsRecomputed int
	PeriodsSkipped    int
}

// SignalDelta is a Temporal Shapley intensity signal that supports
// O(changed-periods) re-attribution as the demand series evolves.
type SignalDelta struct {
	demand    *timeseries.Series // owned copy of the current demand
	intensity *timeseries.Series // owned, live result
	budget    float64
	cfg       Config
	arena     *attrArena

	m     int // top-level period count
	width int // samples per top-level period

	crcs   []uint32  // per-period demand fingerprints
	shares []float64 // per-period attributed carbon

	// Preallocated update scratch.
	newCRCs   []uint32
	newShares []float64
	changed   []bool
	crcBuf    []byte
}

// IntensitySignalDelta builds the intensity signal for the demand series
// (exactly IntensitySignal's result, bit for bit) and wraps it for delta
// re-attribution. The demand values are copied; the caller's series is not
// retained.
func IntensitySignalDelta(demand *timeseries.Series, budget units.GramsCO2e, cfg Config) (*SignalDelta, error) {
	if err := validateSignal(demand, budget, cfg); err != nil {
		return nil, err
	}
	m, width := 1, demand.Len()
	if len(cfg.SplitRatios) > 0 {
		m = cfg.SplitRatios[0]
		width = demand.Len() / m
	}
	d := &SignalDelta{
		demand:    demand.Clone(),
		intensity: timeseries.Zeros(demand.Start, demand.Step, demand.Len()),
		budget:    float64(budget),
		cfg:       cfg,
		arena:     newAttrArena(cfg.SplitRatios),
		m:         m,
		width:     width,
		crcs:      make([]uint32, m),
		shares:    make([]float64, m),
		newCRCs:   make([]uint32, m),
		newShares: make([]float64, m),
		changed:   make([]bool, m),
		crcBuf:    make([]byte, min(width, 8192)*8),
	}
	// The build runs the identical serial recursion IntensitySignal would,
	// so the wrapped signal starts bitwise-equal to a fresh one.
	a := attributor{demand: d.demand, backend: cfg.Backend, workers: 1, arena: d.arena}
	if err := a.attribute(0, d.demand.Len(), d.budget, cfg.SplitRatios, d.intensity.Values); err != nil {
		return nil, err
	}
	if err := d.topShares(d.demand.Values, d.shares); err != nil {
		return nil, err
	}
	for k := 0; k < m; k++ {
		d.crcs[k] = checkpoint.Float64sCRCUpdateBuf(0, d.demand.Values[k*width:(k+1)*width], d.crcBuf)
	}
	return d, nil
}

// Intensity returns the live intensity signal. Callers must treat it as
// read-only; updates mutate it in place.
func (d *SignalDelta) Intensity() *timeseries.Series { return d.intensity }

// Demand returns the owned demand series the signal currently reflects.
// Callers must treat it as read-only.
func (d *SignalDelta) Demand() *timeseries.Series { return d.demand }

// Periods returns the top-level period count.
func (d *SignalDelta) Periods() int { return d.m }

// PeriodFingerprints returns the live per-period demand CRCs. Callers must
// treat the slice as read-only.
func (d *SignalDelta) PeriodFingerprints() []uint32 { return d.crcs }

// topShares evaluates the top-level attribution over the given demand
// values into shares: exactly the arithmetic the recursion's first level
// performs, in the same order, so a share that comes out bitwise-equal
// proves the period's sub-attribution input did not move.
func (d *SignalDelta) topShares(values []float64, shares []float64) error {
	if len(d.cfg.SplitRatios) == 0 {
		shares[0] = d.budget
		return nil
	}
	peaks, qs := d.arena.peaks[0], d.arena.qs[0]
	step := float64(d.demand.Step)
	for k := 0; k < d.m; k++ {
		clo := k * d.width
		peak, q := 0.0, 0.0
		for i := clo; i < clo+d.width; i++ {
			v := values[i]
			if v > peak {
				peak = v
			}
			q += v
		}
		peaks[k] = peak
		qs[k] = q * step
	}
	var phi []float64
	var err error
	if d.cfg.Backend == NaiveSubset {
		phi, err = shapley.PeakGameNaive(peaks)
	} else {
		phi = d.arena.phi[0]
		err = shapley.PeakGameInto(peaks, phi, d.arena.idx[0])
	}
	if err != nil {
		return fmt.Errorf("temporal: level with %d periods: %w", d.m, err)
	}
	denom := 0.0
	for k := range phi {
		denom += phi[k] * qs[k]
	}
	if denom == 0 {
		return fmt.Errorf("temporal: internal error, zero attribution denominator over %d periods", d.m)
	}
	for k := 0; k < d.m; k++ {
		shares[k] = phi[k] * qs[k] / denom * d.budget
	}
	return nil
}

// Update transitions the signal to the new demand series, re-attributing
// only the top-level periods whose demand bins or carbon share moved at
// the bit level; afterwards Intensity() is Float64bits-identical to a
// fresh IntensitySignal of the new demand. The new series must align with
// the built one (same start, step and length) and satisfy the same
// validation IntensitySignal applies; on any validation error the wrapped
// state is left untouched.
func (d *SignalDelta) Update(newDemand *timeseries.Series) (DeltaStats, error) {
	if newDemand == nil {
		return DeltaStats{}, ErrMisaligned
	}
	if newDemand.Start != d.demand.Start || newDemand.Step != d.demand.Step || newDemand.Len() != d.demand.Len() {
		return DeltaStats{}, ErrMisaligned
	}
	if err := validateSignal(newDemand, units.GramsCO2e(d.budget), d.cfg); err != nil {
		return DeltaStats{}, err
	}

	// Detect per-period demand changes: CRC fast-reject, then a raw bit
	// comparison when the CRCs agree, so a collision cannot cause a skip.
	for k := 0; k < d.m; k++ {
		lo, hi := k*d.width, (k+1)*d.width
		nc := checkpoint.Float64sCRCUpdateBuf(0, newDemand.Values[lo:hi], d.crcBuf)
		d.newCRCs[k] = nc
		if nc != d.crcs[k] {
			d.changed[k] = true
			continue
		}
		d.changed[k] = false
		for i := lo; i < hi; i++ {
			if math.Float64bits(newDemand.Values[i]) != math.Float64bits(d.demand.Values[i]) {
				d.changed[k] = true
				break
			}
		}
	}
	if err := d.topShares(newDemand.Values, d.newShares); err != nil {
		// Validation passed, so the top level cannot fail; poisoning the
		// state here would otherwise be unrecoverable.
		return DeltaStats{}, err
	}

	var stats DeltaStats
	a := attributor{demand: d.demand, backend: d.cfg.Backend, workers: 1, arena: d.arena}
	var splits []int
	if len(d.cfg.SplitRatios) > 0 {
		splits = d.cfg.SplitRatios[1:]
	}
	for k := 0; k < d.m; k++ {
		if !d.changed[k] && math.Float64bits(d.newShares[k]) == math.Float64bits(d.shares[k]) {
			stats.PeriodsSkipped++
			continue
		}
		stats.PeriodsRecomputed++
		lo, hi := k*d.width, (k+1)*d.width
		copy(d.demand.Values[lo:hi], newDemand.Values[lo:hi])
		// Clear before re-attributing: the recursion only writes where it
		// assigns positive budget, and zero-share ranges must read zero.
		iv := d.intensity.Values
		for i := lo; i < hi; i++ {
			iv[i] = 0
		}
		if err := a.attribute(lo, hi, d.newShares[k], splits, iv); err != nil {
			return stats, err
		}
		d.crcs[k] = d.newCRCs[k]
		d.shares[k] = d.newShares[k]
	}
	return stats, nil
}
