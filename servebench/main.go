// Command servebench benchmarks the served attribution path. It builds the
// attribution service from its public constructors with the daemon's
// defaults — one replica, or a three-replica fleet with its probers — on
// real loopback listeners, drives one of three seeded workloads as closed
// loops from this process, checks every answer against an independent
// oracle, and prints the end-to-end metrics as the last line of standard
// output: one JSON object with the keys correct, attempted, failed and
// metrics. With --trace 1 it runs the workload twice, untraced and then
// traced, and prints the per-layer metrics instead; the spans go to
// .bench_build/traces/ as gzipped tab-separated lines.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
//
// The workloads are hot-read, cold-sweep and cluster-write; README.md
// describes them, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: hot-read, cold-sweep or cluster-write")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is drawn from")
	flag.Float64Var(&opt.seconds, "seconds", 30, "length of the timed phases in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	flag.Parse()
	opt.trace = traceFlag == 1
	run, ok := workloads[opt.workload]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown workload %q (want hot-read, cold-sweep or cluster-write)", opt.workload))
	case opt.seconds <= 0:
		fatal(fmt.Errorf("--seconds must be positive"))
	case traceFlag != 0 && traceFlag != 1:
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}

	prov, err := provenance(opt)
	if err != nil {
		fatal(err)
	}
	emitJSON("# provenance ", prov)

	untraced := newPass(opt, nil)
	if err := run(untraced); err != nil {
		fatal(err)
	}
	passes := []*pass{untraced}
	var metrics []metric
	if opt.trace {
		tr := newTracer()
		traced := newPass(opt, tr)
		if err := run(traced); err != nil {
			fatal(err)
		}
		passes = append(passes, traced)
		if metrics, err = perLayer(untraced, traced); err != nil {
			fatal(err)
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv.gz", opt.workload, opt.seed))
		if err := tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("# spans written to %s\n", path)
	} else {
		metrics = endToEnd(untraced)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range passes {
		for _, t := range opTypes {
			c := p.ops[t]
			fmt.Printf("# ops %-6s attempted %7d failed %d\n", t, c.attempted, c.failed)
			res.Attempted += c.attempted
			res.Failed += c.failed
		}
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "servebench: check failed:", msg)
		}
		res.Correct = res.Correct && len(p.problems) == 0
	}
	for _, m := range metrics {
		fmt.Printf("# %-40s %14.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	emitJSON("", res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(2)
}

func emitJSON(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s%s\n", prefix, b)
}

// endToEnd assembles the metrics a user of the service sees, from an
// untraced pass.
func endToEnd(p *pass) []metric {
	ops := float64(p.completed)
	return []metric{
		{"setup_s", "s", median(p.setups)},
		{"query_rps", "1/s", float64(len(p.getMS)) / p.readTime.Seconds()},
		{"query_p50_ms", "ms", quantile(p.getMS, 0.5)},
		{"query_p90_ms", "ms", quantile(p.getMS, 0.9)},
		{"whatif_p50_ms", "ms", median(p.whatifMeds)},
		{"commit_p50_ms", "ms", median(p.commitMeds)},
		{"allocs_per_op", "count", float64(p.mem.mallocs) / ops},
		{"alloc_kib_per_op", "KiB", float64(p.mem.bytes) / 1024 / ops},
		{"heap_mib", "MiB", mean(p.heaps)},
	}
}
