package main

import (
	"math"
	"runtime"
	"sort"

	"fairco2/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// counters is a snapshot of counter and gauge values from metric
// registries: each family under its own name (summed over every label
// set) and under name{label=value} for each single label pair.
type counters map[string]float64

// gather snapshots regs through Registry.Gather(), the same view the
// /metrics endpoint renders.
func gather(regs ...*metrics.Registry) counters {
	out := counters{}
	for _, reg := range regs {
		for _, f := range reg.Gather() {
			if f.Kind == metrics.KindHistogram {
				continue
			}
			for _, s := range f.Samples {
				out[f.Name] += s.Value
				for i, l := range f.LabelNames {
					out[f.Name+"{"+l+"="+s.LabelValues[i]+"}"] += s.Value
				}
			}
		}
	}
	return out
}

// sub returns c - base for every key of c.
func (c counters) sub(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// add accumulates d into c.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// memSample is the process-wide allocation and GC state at one instant.
type memSample struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
