// Command attribution-server is Fair-CO2's query daemon: a long-lived
// HTTP service that answers per-tenant attribution, share and billing
// queries over one configured schedule. Expensive Shapley computations
// are amortized behind a sharded result cache, request coalescing (N
// concurrent identical queries cost one computation) and batched
// evaluation (queries inside a small window merge into one attribution
// call), so the service survives dashboard fan-out and scrape storms.
//
//	GET /v1/attribution?method=fair-co2&period=0:6&tenant=3
//	GET /v1/share?period=0:6
//	GET /v1/billing?period=2:5
//	GET /metrics   -> Prometheus text format
//	GET /healthz   -> {"status":"ok", ...}
//
// The schedule comes from a CSV (-schedule, the schedule.WriteCSV
// format) or is generated with the paper's §6.3 parameters (-seed).
// With -signal-url set, period budgets are priced against the live
// embodied intensity through the resilient signal client, and cache
// TTLs follow the signal's staleness ladder.
//
// With -stream set, the daemon additionally runs the windowed streaming
// attribution engine: a scripted replay of an Azure-like demand trace
// (bursts, ramps and outage gaps via -stream-scenario, out-of-order
// delivery via -stream-disorder) feeds tumbling windows whose Temporal
// Shapley results are served live:
//
//	GET /v1/stream/window           -> latest closed window
//	GET /v1/stream/window?index=4   -> a retained window by ordinal
//	GET /v1/stream/stats            -> watermark, late/dropped counters
//
// -stream-once replays the whole script at maximum speed, prints the
// summary report (windows closed, late/dropped accounting against the
// script's oracle, watermark lag percentiles) and exits.
//
// With -replica-id set, the daemon joins a scale-out cluster: queries
// are routed by consistent hash over the -cluster-peers membership to
// the replica owning each computation (so identical queries compute once
// cluster-wide), delta commits replicate to every peer, and admission
// control (-admit-rate per-tenant token buckets, -max-queue depth bound)
// sheds overload with 429 + Retry-After:
//
//	attribution-server -replica-id 0 \
//	  -cluster-peers '0=http://h0:9103,1=http://h1:9103' \
//	  -admit-rate 50 -max-queue 64
//
//	GET /v1/cluster   -> membership, ring and admission introspection
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/clusterserve"
	"fairco2/internal/livesignal"
	"fairco2/internal/metrics"
	"fairco2/internal/multiregion"
	"fairco2/internal/resilience"
	"fairco2/internal/schedule"
	"fairco2/internal/signalserver"
	"fairco2/internal/units"
)

// daemonConfig is the flag-level configuration: where the schedule comes
// from, how to price it, and the serving knobs forwarded to attrserver.
type daemonConfig struct {
	// SchedulePath is a schedule CSV; empty generates one from Seed.
	SchedulePath string
	// Seed drives schedule generation when SchedulePath is empty.
	Seed int64
	// MaxWorkloads caps the generated schedule (exact Shapley needs <= 24).
	MaxWorkloads int
	// Budget is the embodied budget over the whole schedule window.
	Budget units.GramsCO2e
	// Parallelism is forwarded to the Shapley engines.
	Parallelism int
	// Delta serves POST /v1/demand/delta: what-if and committed demand
	// updates, answered over the full window by the standard methods.
	Delta bool

	// Serving knobs, forwarded to attrserver.Config.
	CacheBytes    int64
	CacheTTL      time.Duration
	BatchWindow   time.Duration
	QueryTimeout  time.Duration
	PricePerTonne float64

	// SignalURL, when set, prices periods against a remote live signal
	// through the resilient client + last-known-good feed.
	SignalURL        string
	SignalResilience resilience.Config
	SignalMaxStale   time.Duration

	// Regions enables the multi-region scenario endpoints (GET
	// /v1/regions and GET /v1/placement/whatif) over a fleet discovered
	// deterministically from RegionSeed.
	Regions bool
	// RegionSeed seeds provider/fleet discovery in regions mode.
	RegionSeed int64

	// Stream configures the windowed streaming replay mode.
	Stream streamOptions

	// Cluster configures scale-out sharding: with -replica-id set the
	// daemon joins a consistent-hash cluster, forwarding queries to their
	// owning replica and admitting work through token buckets and a
	// queue-depth bound.
	Cluster clusterOptions
}

func defaultDaemonConfig() daemonConfig {
	def := attrserver.DefaultConfig()
	return daemonConfig{
		Seed:             1,
		RegionSeed:       1,
		MaxWorkloads:     14,
		Budget:           1e6,
		Delta:            def.EnableDelta,
		CacheBytes:       def.CacheBytes,
		CacheTTL:         def.CacheTTL,
		BatchWindow:      def.BatchWindow,
		QueryTimeout:     def.QueryTimeout,
		PricePerTonne:    def.PricePerTonne,
		SignalResilience: resilience.DefaultConfig(),
		SignalMaxStale:   livesignal.DefaultMaxStale,
		Stream:           defaultStreamOptions(),
	}
}

func (c daemonConfig) validate() error {
	switch {
	case c.Budget <= 0:
		return errors.New("budget must be positive")
	case c.SchedulePath == "" && c.MaxWorkloads < 1:
		return errors.New("max workloads must be positive")
	}
	if c.SignalURL != "" {
		if err := c.SignalResilience.Validate(); err != nil {
			return err
		}
		if c.SignalMaxStale <= 0 {
			return errors.New("signal max-stale must be positive")
		}
	}
	return nil
}

// loadSchedule reads the CSV at path, or generates a schedule with the
// paper's parameters when path is empty.
func loadSchedule(path string, seed int64, maxWorkloads int) (*schedule.Schedule, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return schedule.ReadCSV(f)
	}
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = maxWorkloads
	return schedule.Generate(gen, rand.New(rand.NewSource(seed)))
}

// buildServer wires the daemon config into a serving attrserver.Server,
// registering its instruments (and, in signal mode, the client and feed
// instruments) on reg. In stream mode the returned runtime carries the
// engine and its replay source; the caller starts the replay.
func buildServer(cfg daemonConfig, reg *metrics.Registry) (*attrserver.Server, *streamRuntime, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	sched, err := loadSchedule(cfg.SchedulePath, cfg.Seed, cfg.MaxWorkloads)
	if err != nil {
		return nil, nil, fmt.Errorf("loading schedule: %w", err)
	}
	scfg := attrserver.DefaultConfig()
	scfg.Schedule = sched
	scfg.Budget = cfg.Budget
	scfg.Parallelism = cfg.Parallelism
	scfg.EnableDelta = cfg.Delta
	scfg.CacheBytes = cfg.CacheBytes
	scfg.CacheTTL = cfg.CacheTTL
	scfg.BatchWindow = cfg.BatchWindow
	scfg.QueryTimeout = cfg.QueryTimeout
	scfg.PricePerTonne = cfg.PricePerTonne
	scfg.Replica = cfg.Cluster.ReplicaID
	if cfg.SignalURL != "" {
		client := (&signalserver.Client{BaseURL: cfg.SignalURL}).
			WithResilience(cfg.SignalResilience, cfg.Seed, signalserver.NewClientInstruments(reg))
		scfg.Feed = livesignal.NewFeed(client,
			livesignal.FeedConfig{MaxStale: cfg.SignalMaxStale},
			livesignal.NewFeedInstruments(reg))
		scfg.SignalMaxStale = cfg.SignalMaxStale
	}
	if cfg.Regions {
		mcfg := multiregion.DefaultConfig()
		scenario, err := multiregion.Discover(mcfg, cfg.RegionSeed)
		if err != nil {
			return nil, nil, fmt.Errorf("discovering regions: %w", err)
		}
		scfg.Scenario = scenario
	}
	var rt *streamRuntime
	if cfg.Stream.Enabled {
		if rt, err = buildStream(cfg.Stream, scfg.Feed, reg); err != nil {
			return nil, nil, fmt.Errorf("building stream mode: %w", err)
		}
		scfg.Stream = rt.engine
	}
	srv, err := attrserver.New(scfg, reg)
	if err != nil {
		return nil, nil, err
	}
	return srv, rt, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("attribution-server: ")

	def := defaultDaemonConfig()
	var (
		addr     = flag.String("addr", ":9103", "listen address")
		schedCSV = flag.String("schedule", def.SchedulePath, "schedule CSV (empty = generate from -seed)")
		seed     = flag.Int64("seed", def.Seed, "generation seed when no schedule CSV is given")
		maxWl    = flag.Int("max-workloads", def.MaxWorkloads, "generated schedule workload cap")
		budget   = flag.Float64("budget", float64(def.Budget), "embodied budget over the schedule window (gCO2e)")
		workers  = flag.Int("parallelism", def.Parallelism, "Shapley engine workers (0 auto, 1 serial)")
		deltaOn  = flag.Bool("delta", def.Delta, "serve POST /v1/demand/delta what-if and commit demand updates")
		cacheB   = flag.Int64("cache-bytes", def.CacheBytes, "result cache byte budget")
		cacheTTL = flag.Duration("cache-ttl", def.CacheTTL, "result lifetime (fresh signal or static budget)")
		window   = flag.Duration("batch-window", def.BatchWindow, "batching window gathering queries into one computation")
		qTimeout = flag.Duration("query-timeout", def.QueryTimeout, "per-query timeout")
		price    = flag.Float64("price-per-tonne", def.PricePerTonne, "billing price in USD per tonne CO2e")
		sigURL   = flag.String("signal-url", def.SignalURL, "base URL of a remote signal server (empty = static budget)")
		maxStale = flag.Duration("signal-max-stale", def.SignalMaxStale, "how long a cached signal sample may substitute for a live one")

		regionsOn  = flag.Bool("regions", def.Regions, "serve the multi-region scenario endpoints (/v1/regions, /v1/placement/whatif)")
		regionSeed = flag.Int64("region-seed", def.RegionSeed, "deterministic seed for provider/fleet discovery in -regions mode")

		streamOn       = flag.Bool("stream", def.Stream.Enabled, "run the windowed streaming attribution engine fed by a trace replay")
		streamOnce     = flag.Bool("stream-once", def.Stream.Once, "replay the stream script to completion, print the summary report and exit")
		streamDays     = flag.Int("stream-days", def.Stream.Days, "replay trace length in days")
		streamSeed     = flag.Int64("stream-seed", def.Stream.Seed, "replay trace + disorder script seed")
		streamRate     = flag.Float64("stream-rate", def.Stream.Rate, "replay pacing: event-time seconds per wall second (0 = max speed)")
		streamScenario = flag.String("stream-scenario", def.Stream.Scenario, "scenario script, e.g. burst:21600,7200,1.8;outage:50400,3600,5000")
		streamDisorder = flag.Float64("stream-disorder", def.Stream.Disorder, "fraction of replay events delivered out of order")
		streamDefer    = flag.Int("stream-max-defer", def.Stream.MaxDefer, "max displacement of disordered events in samples (0 = auto, stays inside the lateness budget)")
		streamSplits   = flag.String("stream-splits", def.Stream.Splits, "per-window Temporal Shapley split ratios (product = bins per window)")
		streamStep     = flag.Float64("stream-step", def.Stream.Step, "demand bin width in seconds")
		streamBudget   = flag.Float64("stream-budget", def.Stream.Budget, "static carbon budget per window (gCO2e) when no -signal-url is set")
		streamDelay    = flag.Float64("stream-max-delay", def.Stream.MaxDelay, "watermark slack in seconds: how far out of order events may arrive and still be on time")
		streamLate     = flag.Float64("stream-lateness", def.Stream.Lateness, "allowed lateness in seconds: late events inside it re-emit a corrected window, beyond it they drop")

		replicaID    = flag.String("replica-id", def.Cluster.ReplicaID, "this replica's cluster ID (set to enable cluster mode)")
		clusterPeers = flag.String("cluster-peers", def.Cluster.Peers, `cluster membership as "id=url,id=url" (must include -replica-id unless running alone)`)
		vnodes       = flag.Int("cluster-vnodes", def.Cluster.VNodes, "virtual nodes per replica on the hash ring (0 = default)")
		admitRate    = flag.Float64("admit-rate", def.Cluster.AdmitRate, "per-tenant admitted requests per second (0 = no tenant limit)")
		admitBurst   = flag.Float64("admit-burst", def.Cluster.AdmitBurst, "per-tenant burst capacity (0 = same as -admit-rate)")
		admitTenants = flag.Int("admit-max-tenants", def.Cluster.AdmitMaxTenants, "bound on tracked tenant buckets (0 = default)")
		maxQueue     = flag.Int("max-queue", def.Cluster.MaxQueue, "bound on concurrently computing requests; beyond it requests shed with 429 (0 = unbounded)")
		retryAfter   = flag.Duration("retry-after", def.Cluster.RetryAfter, "pause a queue-depth 429 asks clients to take")

		probeInterval = flag.Duration("probe-interval", def.Cluster.ProbeInterval, "health probe period per peer (0 = 500ms default)")
		probeTimeout  = flag.Duration("probe-timeout", def.Cluster.ProbeTimeout, "health probe timeout; a stalling peer counts as failed (0 = interval/2)")
		probeFail     = flag.Int("probe-fail-threshold", def.Cluster.ProbeFail, "consecutive probe failures before a peer goes Down (0 = 3)")
		probeUp       = flag.Int("probe-up-threshold", def.Cluster.ProbeUp, "consecutive ok probes before a peer rejoins the ring (0 = 2)")
		hedgeSucc     = flag.Int("hedge-successors", def.Cluster.HedgeSuccessors, "ring successors tried when the owner fails or stalls (0 = 2)")
		hedgeLatency  = flag.Duration("hedge-latency", def.Cluster.HedgeLatency, "latency budget before a read hedges to the next successor (0 = 150ms)")
		drainWait     = flag.Duration("drain-wait", 3*time.Second, "on SIGTERM, how long to keep serving with a failing /healthz so peers evict this replica before the listener closes")
	)
	resil := def.SignalResilience
	resil.RegisterFlags(flag.CommandLine, "signal")
	flag.Parse()

	cfg := def
	cfg.SchedulePath = *schedCSV
	cfg.Seed = *seed
	cfg.MaxWorkloads = *maxWl
	cfg.Budget = units.GramsCO2e(*budget)
	cfg.Parallelism = *workers
	cfg.Delta = *deltaOn
	cfg.CacheBytes = *cacheB
	cfg.CacheTTL = *cacheTTL
	cfg.BatchWindow = *window
	cfg.QueryTimeout = *qTimeout
	cfg.PricePerTonne = *price
	cfg.SignalURL = *sigURL
	cfg.SignalMaxStale = *maxStale
	cfg.SignalResilience = resil
	cfg.Regions = *regionsOn
	cfg.RegionSeed = *regionSeed
	cfg.Stream = streamOptions{
		Enabled:  *streamOn || *streamOnce,
		Once:     *streamOnce,
		Days:     *streamDays,
		Seed:     *streamSeed,
		Rate:     *streamRate,
		Scenario: *streamScenario,
		Disorder: *streamDisorder,
		MaxDefer: *streamDefer,
		Splits:   *streamSplits,
		Step:     *streamStep,
		Budget:   *streamBudget,
		MaxDelay: *streamDelay,
		Lateness: *streamLate,
	}
	cfg.Cluster = clusterOptions{
		ReplicaID:       *replicaID,
		Peers:           *clusterPeers,
		VNodes:          *vnodes,
		AdmitRate:       *admitRate,
		AdmitBurst:      *admitBurst,
		AdmitMaxTenants: *admitTenants,
		MaxQueue:        *maxQueue,
		RetryAfter:      *retryAfter,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		ProbeFail:       *probeFail,
		ProbeUp:         *probeUp,
		HedgeSuccessors: *hedgeSucc,
		HedgeLatency:    *hedgeLatency,
		DrainWait:       *drainWait,
	}

	if cfg.Stream.Once {
		if err := runStreamOnce(cfg.Stream, metrics.Default(), os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv, streamRT, err := buildServer(cfg, metrics.Default())
	if err != nil {
		log.Fatal(err)
	}

	handler := http.Handler(srv.Handler())
	var node *clusterserve.Node
	if cfg.Cluster.enabled() {
		if node, err = wrapCluster(cfg.Cluster, srv, metrics.Default()); err != nil {
			log.Fatal(err)
		}
		handler = node.Handler()
		node.Start()
		defer node.Stop()
		log.Printf("cluster mode: replica %s, peers %q", cfg.Cluster.ReplicaID, cfg.Cluster.Peers)
	}

	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      *qTimeout + 10*time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.ListenAndServe() }()
	fmt.Printf("attribution-server serving on %s\n", *addr)

	if streamRT != nil {
		go func() {
			log.Printf("stream replay: %d events at %gx real-time", len(streamRT.replay.Events), cfg.Stream.Rate)
			if err := streamRT.replay.Run(ctx, streamRT.engine.Ingest); err != nil {
				if ctx.Err() == nil {
					log.Printf("stream replay failed: %v", err)
				}
				return
			}
			st := streamRT.engine.Stats()
			log.Printf("stream replay finished: %d windows closed, %d late, %d dropped",
				st.WindowsClosed, st.Late, st.Dropped)
		}()
	}

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	if node != nil && cfg.Cluster.DrainWait > 0 {
		// Graceful drain: fail /healthz first so every peer's prober
		// evicts this replica from its ring, keep serving (and finishing
		// in-flight forwards) through the eviction window, then close the
		// listener. Peers see an orderly departure, not a blackout.
		log.Printf("draining: failing /healthz for %v so peers evict this replica", cfg.Cluster.DrainWait)
		node.BeginDrain()
		time.Sleep(cfg.Cluster.DrainWait)
	}
	log.Print("shutting down (draining in-flight queries)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *qTimeout+5*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
}
