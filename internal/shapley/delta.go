package shapley

import (
	"math/bits"
	"time"

	"fairco2/internal/checkpoint"
)

// Incremental delta re-attribution over the dense coalition table. A
// DeltaTable wraps a built table plus one CRC-32 fingerprint per gray-code
// block (the same fixed block decomposition BuildTableIncrementalParallel
// and the checkpointed builder enumerate, so fingerprints are comparable
// across the whole engine). When a subset of players changes, only the
// coalitions containing a changed player can change value, so a delta
// apply re-evaluates exactly those masks:
//
//   - blocks whose fixed high bits contain a changed player are
//     re-enumerated in full, in the same gray-code order a fresh build
//     uses;
//   - blocks touched only through changed low bits re-walk the affected
//     subcubes: the masks with some changed low bit set partition by their
//     LOWEST set changed bit c_j into disjoint subcubes (c_j pinned 1,
//     lower changed bits pinned 0, every other low bit free), so for k
//     changed low bits the block re-evaluates 2^low - 2^(low-k) masks and
//     skips the rest.
//
// For a single changed player that is half the table — but evaluated
// through the incremental gray walk each re-evaluation costs O(update)
// instead of the O(|S| * update) a scratch SetFunc evaluation pays, which
// is where the order-of-magnitude delta speedup comes from.
//
// Determinism contract (mirrors the builders'): Apply re-evaluates pure
// per-mask values, so the table is bit-for-bit identical to a fresh
// BuildTableParallel of the changed game for any worker count.
// ApplyIncremental enumerates a worker-independent set of subcubes with
// caller-supplied incremental state, so it equals a fresh build exactly
// whenever the state's arithmetic is exact over add/remove (e.g.
// integer-valued demands — the Fair-CO2 coalition-peak game), and within
// FP rounding otherwise.
//
// A DeltaTable is not safe for concurrent use: applies mutate the table,
// the fingerprints and preallocated scratch. Steady-state applies perform
// no heap allocation when run serially (workers == 1) with a game that
// allocates none itself; the race_off AllocsPerRun tests pin this.
//
// No program serves from a DeltaTable: the attribution service answers
// demand edits by attributing an edited schedule afresh, since a resident
// 2^n table cost every replica memory and every commit time for answers
// a fresh build gives as fast. DeltaTable stays, with its suites,
// benchmarks and CI gate, only because servebench's per-layer replay
// (replayDeltas) times it, until a change to the benchmark drops that
// replay.

// DeltaStats reports what one delta apply did.
type DeltaStats struct {
	// BlocksRecomputed counts gray-code blocks that re-evaluated at least
	// one coalition; BlocksSkipped counts the untouched rest. They sum to
	// the table's block count.
	BlocksRecomputed int
	BlocksSkipped    int
	// BlocksChanged counts recomputed blocks whose fingerprint actually
	// moved — a recompute that lands on identical bits keeps its CRC.
	BlocksChanged int
	// Coalitions counts coalition values re-evaluated; a full rebuild
	// would have evaluated len(Table()) of them.
	Coalitions int
}

// DeltaTable is a dense coalition table that supports O(changed-blocks)
// re-evaluation when a subset of players changes.
type DeltaTable struct {
	n      int
	low    int // free low bits per block; blockLen = 1 << low
	blocks int
	table  []float64
	fps    []uint32 // per-block CRC-32 fingerprints

	// Preallocated scratch so steady-state applies stay allocation-free.
	lowAll   []int    // the identity free-bit list [0, low)
	subFixed []uint64 // per-subcube pinned-one bit (a changed low bit)
	subFree  []uint64 // per-subcube free-bit mask
	subLen   []int    // per-subcube free-bit count
	freeBits []int    // flat per-subcube free-bit lists, stride low
	wkRecomp []int64  // per-worker stat accumulators
	wkChang  []int64
	wkCoals  []int64
	crcBuf   []byte // encode buffer for serial fingerprint refreshes
}

// NewDeltaTable builds the coalition table with BuildTableParallel and
// wraps it for delta re-evaluation. v must be safe for concurrent use when
// workers != 1.
func NewDeltaTable(n int, v SetFunc, workers int) (*DeltaTable, error) {
	table, err := BuildTableParallel(n, v, workers)
	if err != nil {
		return nil, err
	}
	return newDeltaFromTable(n, table), nil
}

// NewDeltaTableIncremental builds the coalition table with
// BuildTableIncrementalParallel (caller-maintained incremental state, one
// fresh game per block) and wraps it for delta re-evaluation.
func NewDeltaTableIncremental(n int, newGame func() (add, remove func(player int), value func() float64), workers int) (*DeltaTable, error) {
	table, err := BuildTableIncrementalParallel(n, newGame, workers)
	if err != nil {
		return nil, err
	}
	return newDeltaFromTable(n, table), nil
}

// newDeltaFromTable wraps an already-validated table: n in [1,
// MaxExactPlayers], len(table) == 2^n.
func newDeltaFromTable(n int, table []float64) *DeltaTable {
	prefixBits := min(n, incrementalPrefixBits)
	low := n - prefixBits
	blocks := 1 << uint(prefixBits)
	t := &DeltaTable{
		n:        n,
		low:      low,
		blocks:   blocks,
		table:    table,
		fps:      make([]uint32, blocks),
		lowAll:   make([]int, low),
		subFixed: make([]uint64, low+1),
		subFree:  make([]uint64, low+1),
		subLen:   make([]int, low+1),
		freeBits: make([]int, low*low+1),
		wkRecomp: make([]int64, blocks),
		wkChang:  make([]int64, blocks),
		wkCoals:  make([]int64, blocks),
		crcBuf:   make([]byte, min(1<<uint(low), 8192)*8),
	}
	for i := range t.lowAll {
		t.lowAll[i] = i
	}
	blockLen := 1 << uint(low)
	for b := 0; b < blocks; b++ {
		t.fps[b] = checkpoint.Float64sCRCUpdateBuf(0, table[b*blockLen:(b+1)*blockLen], t.crcBuf)
	}
	return t
}

// N returns the player count.
func (t *DeltaTable) N() int { return t.n }

// Blocks returns the gray-code block count of the decomposition.
func (t *DeltaTable) Blocks() int { return t.blocks }

// Table returns the live coalition table, indexed by bitmask. Callers must
// treat it as read-only; it is re-used (not re-allocated) across applies.
func (t *DeltaTable) Table() []float64 { return t.table }

// BlockFingerprints returns the live per-block CRC-32 fingerprints
// (checkpoint.Float64sCRCUpdate over each block's Float64 bit patterns).
// Callers must treat the slice as read-only.
func (t *DeltaTable) BlockFingerprints() []uint32 { return t.fps }

// checkChanged validates a changed-player mask against the table (n is at
// most MaxExactPlayers, so the shift is always in range).
func (t *DeltaTable) checkChanged(changed uint64) error {
	if changed>>uint(t.n) != 0 {
		return ErrChangedPlayers
	}
	return nil
}

// Apply re-evaluates every coalition containing a changed player with the
// plain characteristic function v and refreshes the touched block
// fingerprints. The table afterwards is bit-for-bit what BuildTableParallel
// of v would build, for any worker count. v must be safe for concurrent use
// when workers != 1.
func (t *DeltaTable) Apply(changed uint64, v SetFunc, workers int) (DeltaStats, error) {
	if v == nil {
		return DeltaStats{}, ErrNilGame
	}
	if err := t.checkChanged(changed); err != nil {
		return DeltaStats{}, err
	}
	start := time.Now()
	if changed == 0 {
		stats := DeltaStats{BlocksSkipped: t.blocks}
		t.observe(stats)
		return stats, nil
	}
	subs := t.prepSubcubes(changed)
	workers = min(resolveWorkers(workers), t.blocks)
	highChanged := changed >> uint(t.low)
	var busy time.Duration
	var err error
	if workers == 1 {
		s := time.Now()
		t.applyPlainRange(0, t.blocks, 0, highChanged, subs, v, t.crcBuf)
		busy = time.Since(s)
	} else {
		busy, err = runWorkers(workers, func(w int) {
			blo, bhi := blockRange(t.blocks, workers, w)
			t.applyPlainRange(blo, bhi, w, highChanged, subs, v, make([]byte, len(t.crcBuf)))
		})
		if err != nil {
			t.gatherStats(workers) // reset the per-worker slots
			return DeltaStats{}, err
		}
	}
	stats := t.gatherStats(workers)
	t.observe(stats)
	observeParallel("delta-apply", workers, time.Since(start), busy)
	return stats, nil
}

// applyPlainRange runs the plain-SetFunc delta over blocks [blo, bhi),
// accumulating stats into worker slot w. crcBuf is the worker's private
// fingerprint encode buffer.
func (t *DeltaTable) applyPlainRange(blo, bhi, w int, highChanged uint64, subs int, v SetFunc, crcBuf []byte) {
	blockLen := 1 << uint(t.low)
	for b := blo; b < bhi; b++ {
		base := uint64(b) << uint(t.low)
		switch {
		case uint64(b)&highChanged != 0:
			// A changed player is pinned into every mask of the block:
			// re-evaluate it whole.
			for m := base; m < base+uint64(blockLen); m++ {
				t.table[m] = v(m)
			}
			t.wkCoals[w] += int64(blockLen)
		case subs > 0:
			// Only changed low bits touch this block: walk the affected
			// subcubes (all submasks of each free mask, any order — the
			// values are pure per-mask).
			for j := 0; j < subs; j++ {
				fixed := base | t.subFixed[j]
				free := t.subFree[j]
				for s := free; ; s = (s - 1) & free {
					m := fixed | s
					t.table[m] = v(m)
					t.wkCoals[w]++
					if s == 0 {
						break
					}
				}
			}
		default:
			continue // block untouched
		}
		t.refreshFingerprint(b, w, crcBuf)
	}
}

// ApplyIncremental re-evaluates every coalition containing a changed player
// through caller-maintained incremental state, like the incremental
// builders: newGame must return a fresh or reset (add, remove, value)
// triple describing the empty coalition. One game instance is used per
// worker and unwound back to empty between subcubes, so a factory that
// returns preallocated closures keeps the apply allocation-free. The
// subcube set does not depend on the worker count, so the result is
// deterministic for any parallelism (and bitwise-equal to a fresh build
// for games with exact add/remove arithmetic).
func (t *DeltaTable) ApplyIncremental(changed uint64, newGame func() (add, remove func(player int), value func() float64), workers int) (DeltaStats, error) {
	if newGame == nil {
		return DeltaStats{}, ErrNilGame
	}
	if err := t.checkChanged(changed); err != nil {
		return DeltaStats{}, err
	}
	start := time.Now()
	if changed == 0 {
		stats := DeltaStats{BlocksSkipped: t.blocks}
		t.observe(stats)
		return stats, nil
	}
	subs := t.prepSubcubes(changed)
	workers = min(resolveWorkers(workers), t.blocks)
	highChanged := changed >> uint(t.low)
	var busy time.Duration
	if workers == 1 {
		// Inlined (closure-free) so the steady-state serial apply stays
		// allocation-free.
		add, remove, value := newGame()
		if add == nil || remove == nil || value == nil {
			return DeltaStats{}, ErrNilGame
		}
		s := time.Now()
		t.applyIncrRange(0, t.blocks, 0, highChanged, subs, add, remove, value, t.crcBuf)
		busy = time.Since(s)
	} else {
		errs := make([]error, workers)
		busy_, panicErr := runWorkers(workers, func(w int) {
			add, remove, value := newGame()
			if add == nil || remove == nil || value == nil {
				errs[w] = ErrNilGame
				return
			}
			blo, bhi := blockRange(t.blocks, workers, w)
			t.applyIncrRange(blo, bhi, w, highChanged, subs, add, remove, value, make([]byte, len(t.crcBuf)))
		})
		if panicErr != nil {
			t.gatherStats(workers) // reset the per-worker slots
			return DeltaStats{}, panicErr
		}
		for _, e := range errs {
			if e != nil {
				t.gatherStats(workers)
				return DeltaStats{}, e
			}
		}
		busy = busy_
	}
	stats := t.gatherStats(workers)
	t.observe(stats)
	observeParallel("delta-apply-incremental", workers, time.Since(start), busy)
	return stats, nil
}

// applyIncrRange runs the incremental delta over blocks [blo, bhi) with one
// game's state, accumulating stats into worker slot w. crcBuf is the
// worker's private fingerprint encode buffer.
func (t *DeltaTable) applyIncrRange(blo, bhi, w int, highChanged uint64, subs int, add, remove func(int), value func() float64, crcBuf []byte) {
	blockLen := 1 << uint(t.low)
	for b := blo; b < bhi; b++ {
		base := uint64(b) << uint(t.low)
		switch {
		case uint64(b)&highChanged != 0:
			// Re-enumerate the whole block in the fresh builders' order.
			t.walkSubcube(base, t.lowAll, add, remove, value)
			t.wkCoals[w] += int64(blockLen)
		case subs > 0:
			for j := 0; j < subs; j++ {
				fb := t.freeBits[j*t.low : j*t.low+t.subLen[j]]
				t.walkSubcube(base|t.subFixed[j], fb, add, remove, value)
				t.wkCoals[w] += int64(1) << uint(len(fb))
			}
		default:
			continue
		}
		t.refreshFingerprint(b, w, crcBuf)
	}
}

// walkSubcube fills table entries for the subcube {fixed | S : S subset of
// freeBits}: the fixed players join once, then the free players walk in
// gray-code order so each step toggles exactly one player (gray(j) and
// gray(j+1) differ in free bit TrailingZeros(j+1), exactly like
// enumerateBlock). The state is unwound to the empty coalition before
// returning, so one game instance can walk many subcubes.
func (t *DeltaTable) walkSubcube(fixed uint64, freeBits []int, add, remove func(int), value func() float64) {
	for rest := fixed; rest != 0; rest &= rest - 1 {
		add(bits.TrailingZeros64(rest))
	}
	t.table[fixed] = value()
	gray := uint64(0)
	for j := uint64(1); j < uint64(1)<<uint(len(freeBits)); j++ {
		p := freeBits[bits.TrailingZeros64(j)]
		bit := uint64(1) << uint(p)
		if gray&bit == 0 {
			add(p)
		} else {
			remove(p)
		}
		gray ^= bit
		t.table[fixed|gray] = value()
	}
	for rest := fixed | gray; rest != 0; rest &= rest - 1 {
		remove(bits.TrailingZeros64(rest))
	}
}

// prepSubcubes decomposes the changed low bits into disjoint subcubes (one
// per changed low bit, keyed by the lowest changed bit a mask contains)
// into the preallocated scratch, returning the subcube count. With no
// changed low bits there are no subcubes and only high-changed blocks
// recompute.
func (t *DeltaTable) prepSubcubes(changed uint64) int {
	lowMask := uint64(1)<<uint(t.low) - 1
	lowChanged := changed & lowMask
	count := 0
	upto := uint64(0) // changed bits at or below the current one
	for rest := lowChanged; rest != 0; rest &= rest - 1 {
		c := bits.TrailingZeros64(rest)
		upto |= uint64(1) << uint(c)
		free := lowMask &^ upto
		t.subFixed[count] = uint64(1) << uint(c)
		t.subFree[count] = free
		ln := 0
		for f := free; f != 0; f &= f - 1 {
			t.freeBits[count*t.low+ln] = bits.TrailingZeros64(f)
			ln++
		}
		t.subLen[count] = ln
		count++
	}
	return count
}

// refreshFingerprint recomputes block b's CRC and counts a recompute (and
// a change, if the bits moved) into worker slot w, encoding through the
// worker's private crcBuf.
func (t *DeltaTable) refreshFingerprint(b, w int, crcBuf []byte) {
	blockLen := 1 << uint(t.low)
	nf := checkpoint.Float64sCRCUpdateBuf(0, t.table[b*blockLen:(b+1)*blockLen], crcBuf)
	t.wkRecomp[w]++
	if nf != t.fps[b] {
		t.fps[b] = nf
		t.wkChang[w]++
	}
}

// gatherStats sums and resets the per-worker accumulators.
func (t *DeltaTable) gatherStats(workers int) DeltaStats {
	var stats DeltaStats
	for w := 0; w < workers; w++ {
		stats.BlocksRecomputed += int(t.wkRecomp[w])
		stats.BlocksChanged += int(t.wkChang[w])
		stats.Coalitions += int(t.wkCoals[w])
		t.wkRecomp[w], t.wkChang[w], t.wkCoals[w] = 0, 0, 0
	}
	stats.BlocksSkipped = t.blocks - stats.BlocksRecomputed
	return stats
}

// observe records one delta apply on the package metrics.
func (t *DeltaTable) observe(stats DeltaStats) {
	metricDeltaApplies.Inc()
	metricDeltaBlocksRecomputed.Add(float64(stats.BlocksRecomputed))
	metricDeltaBlocksSkipped.Add(float64(stats.BlocksSkipped))
	if stats.Coalitions > 0 {
		metricDeltaSpeedup.Set(float64(len(t.table)) / float64(stats.Coalitions))
	}
	metricExactCoalitions.Add(float64(stats.Coalitions))
}
