package main

import (
	"strings"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/shapley"
	"fairco2/internal/temporal"
	"fairco2/internal/units"
)

// perLayer assembles the per-layer metrics: span-derived timings from the
// traced pass, counters read from the program's registries at the traced
// pass's phase boundaries, direct timings of the delta engines replaying
// the pass's own edits, and the runtime's GC counts from the untraced pass.
// A layer the workload does not run reads 0. Each method's compute spans
// must match the rise of its computations counter.
func perLayer(base, tr *pass) ([]metric, error) {
	var overhead, handler, self, kib, missWait, forward, entrySelf, replicate, whatifH, commitH []float64
	compute := map[string][]float64{}
	for rid, r := range tr.tr.requests() {
		if rid == 0 {
			continue
		}
		for i, s := range r.spans {
			switch {
			case strings.HasPrefix(s.name, computePrefix):
				compute[s.name] = append(compute[s.name], r.dur(i))
			case s.name == spanReplicate:
				replicate = append(replicate, r.dur(i))
			}
		}
		entry := r.find(spanEntry)
		if entry < 0 {
			continue
		}
		// The applying handler is the owner a request was forwarded to,
		// or the entry replica when it owned the request itself.
		applying := r.find(spanOwner)
		if applying < 0 {
			applying = entry
		}
		if f := r.find(spanForward); f >= 0 {
			forward = append(forward, r.dur(f))
			entrySelf = append(entrySelf, r.self(entry))
		}
		switch {
		case r.find(spanGet) >= 0:
			overhead = append(overhead, r.dur(r.find(spanGet))-r.dur(entry))
			handler = append(handler, r.dur(applying))
			self = append(self, r.self(applying))
			kib = append(kib, float64(r.spans[applying].bytes)/1024)
			if r.hasChild(applying, computePrefix) {
				missWait = append(missWait, r.self(applying))
			}
		case r.find(spanWhatif) >= 0:
			whatifH = append(whatifH, r.dur(applying))
		case r.find(spanCommit) >= 0:
			commitH = append(commitH, r.dur(applying))
		}
	}

	c := tr.layer
	hits, misses := c["fairco2_attrserver_cache_hits_total"], c["fairco2_attrserver_cache_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	out := []metric{
		{"http.overhead_ms_p50", "ms", median(overhead)},
		{"attrserver.handler_ms_p50", "ms", median(handler)},
		{"attrserver.self_ms_p50", "ms", median(self)},
		{"attrserver.response_kib_p50", "KiB", median(kib)},
		{"attrserver.miss_wait_ms_p50", "ms", median(missWait)},
		{"attrserver.hits", "count", hits},
		{"attrserver.misses", "count", misses},
		{"attrserver.hit_ratio", "ratio", ratio},
		{"attrserver.coalesced", "count", c["fairco2_attrserver_coalesced_total"]},
		{"attrserver.evictions", "count", c["fairco2_attrserver_cache_evictions_total"]},
	}
	for _, m := range methodNames {
		spans := compute[computePrefix+m]
		if n := c["fairco2_attrserver_computations_total{method="+m+"}"]; float64(len(spans)) != n {
			tr.problem("%d %s compute spans, but the computations counter rose by %v", len(spans), m, n)
		}
		busy := 0.0
		for _, d := range spans {
			busy += d
		}
		out = append(out,
			metric{"attribution." + m + ".calls", "count", float64(len(spans))},
			metric{"attribution." + m + ".busy_s", "s", busy / 1000},
			metric{"attribution." + m + ".ms_p50", "ms", median(spans)})
	}
	coalitions := 0.0
	if n := len(compute[computePrefix+methodGroundTruth]); n > 0 {
		coalitions = tr.readLayer["fairco2_shapley_exact_coalitions_total"] / float64(n)
	}
	var covered, recomputed []float64
	for _, d := range tr.deltaStats {
		covered = append(covered, d[0])
		recomputed = append(recomputed, d[1])
	}
	apply, update, exact, err := replayDeltas(tr.edits)
	if err != nil {
		return nil, err
	}
	out = append(out,
		metric{"shapley.coalitions_per_query", "count", coalitions},
		metric{"delta.whatif_handler_ms_p50", "ms", median(whatifH)},
		metric{"delta.commit_handler_ms_p50", "ms", median(commitH)},
		metric{"delta.table_patches_per_whatif", "count", mean(tr.patches)},
		metric{"delta.coalitions_per_whatif", "count", mean(covered)},
		metric{"delta.periods_recomputed_per_whatif", "count", mean(recomputed)},
		metric{"shapley.delta_apply_ms_p50", "ms", median(apply)},
		metric{"temporal.signal_update_ms_p50", "ms", median(update)},
		metric{"shapley.exact_from_table_ms_p50", "ms", median(exact)},
		metric{"cluster.forwards", "count", c["fairco2_cluster_forwards_total"]},
		metric{"cluster.local", "count", c["fairco2_cluster_local_requests_total"]},
		metric{"cluster.forward_ms_p50", "ms", median(forward)},
		metric{"cluster.entry_self_ms_p50", "ms", median(entrySelf)},
		metric{"cluster.replications", "count", c["fairco2_cluster_replications_total"]},
		metric{"cluster.replicate_ms_p50", "ms", median(replicate)},
		metric{"cluster.forward_errors", "count", c["fairco2_cluster_forward_errors_total"]},
		metric{"cluster.replication_errors", "count", c["fairco2_cluster_replication_errors_total"]},
		metric{"cluster.misrouted", "count", c["fairco2_cluster_misrouted_total"]},
		metric{"cluster.hedges", "count", c["fairco2_cluster_hedges_total"]},
		metric{"cluster.failovers", "count", c["fairco2_cluster_failovers_total"]},
		metric{"cluster.shed", "count", c["fairco2_cluster_shed_total"]},
		metric{"runtime.gc_cycles", "count", float64(base.mem.gcs)},
		metric{"runtime.gc_pause_ms", "ms", float64(base.mem.pauseNs) / 1e6},
		metric{"trace.overhead_ms_p50", "ms", quantile(tr.getMS, 0.5) - quantile(base.getMS, 0.5)},
	)
	return out, nil
}

// replayDeltas times the delta engines directly on each phase's edit
// sequence, driving them as the delta endpoint does: every edit updates
// the intensity signal and patches the coalition table, a what-if then
// reverts both, and commits and ground-truth what-ifs recompute Shapley
// values from the table.
func replayDeltas(logs []editLog) (apply, update, exact []float64, err error) {
	for _, l := range logs {
		s := cloneSchedule(l.initial)
		n := len(s.Workloads)
		game := func() (func(int), func(int), func() float64) { return attribution.DemandPeakGame(s) }
		sig, err := temporal.IntensitySignalDelta(s.Demand(), units.GramsCO2e(budgetGrams), temporal.Config{SplitRatios: []int{s.Slices}})
		if err != nil {
			return nil, nil, nil, err
		}
		dt, err := shapley.NewDeltaTableIncremental(n, game, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		set := func(tenant, cores int) error {
			s.Workloads[tenant].Cores = cores
			demand := s.Demand()
			d, err := timeCall(func() error { _, err := sig.Update(demand); return err })
			if err != nil {
				return err
			}
			update = append(update, d)
			d, err = timeCall(func() error { _, err := dt.ApplyIncremental(1<<uint(tenant), game, 0); return err })
			apply = append(apply, d)
			return err
		}
		for _, e := range l.edits {
			old := s.Workloads[e.tenant].Cores
			if err := set(e.tenant, e.cores); err != nil {
				return nil, nil, nil, err
			}
			if e.commit || e.method == methodGroundTruth {
				d, err := timeCall(func() error { _, err := shapley.ExactFromTable(n, dt.Table()); return err })
				if err != nil {
					return nil, nil, nil, err
				}
				exact = append(exact, d)
			}
			if !e.commit {
				if err := set(e.tenant, old); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return apply, update, exact, nil
}

func timeCall(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return ms(time.Since(start)), err
}
