package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/attrserver"
	"fairco2/internal/clusterserve"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// replica is one attrserver behind a real loopback listener, wrapped in a
// cluster node when it belongs to a fleet.
type replica struct {
	srv  *attrserver.Server
	node *clusterserve.Node
	hs   *http.Server
	url  string
}

// service is what one phase of a workload drives: a single replica or a
// three-replica fleet sharing one metrics registry, as the daemon's
// replicas each register on theirs.
type service struct {
	reg      *metrics.Registry
	replicas []*replica
	serving  sync.WaitGroup
	// whatifMS and commitMS are the latencies of the edits sent to it.
	whatifMS, commitMS []float64
}

// fleetSize is the cluster-write fleet: the smallest fleet with a
// forward hop and more than one replication target.
const fleetSize = 3

// serverConfig mirrors cmd/attribution-server: DefaultConfig with the
// schedule and budget filled in. A traced run swaps in method wrappers
// that record compute spans around the four standard methods, built as
// attrserver.New builds them.
func serverConfig(s *schedule.Schedule, id string, tr *tracer) attrserver.Config {
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = cloneSchedule(s)
	cfg.Budget = units.GramsCO2e(budgetGrams)
	cfg.Replica = id
	if tr != nil {
		cfg.Methods = map[string]attribution.Method{
			methodGroundTruth: tr.method(methodGroundTruth, attribution.GroundTruth{Parallelism: cfg.Parallelism}),
			methodFairCO2:     tr.method(methodFairCO2, attribution.TemporalShapley{Parallelism: cfg.Parallelism}),
			methodRUP:         tr.method(methodRUP, attribution.RUPBaseline{}),
			methodDemand:      tr.method(methodDemand, attribution.DemandProportional{}),
		}
	}
	return cfg
}

// serve starts h on ln with the daemon's server timeouts.
func (svc *service) serve(r *replica, ln net.Listener, h http.Handler) {
	r.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      40 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	r.url = "http://" + ln.Addr().String()
	svc.serving.Add(1)
	go func() {
		defer svc.serving.Done()
		_ = r.hs.Serve(ln) // returns ErrServerClosed on close
	}()
}

// startSingle builds one replica the way the daemon does without cluster
// flags.
func startSingle(s *schedule.Schedule, tr *tracer) (*service, error) {
	svc := &service{reg: metrics.NewRegistry()}
	srv, err := attrserver.New(serverConfig(s, "0", tr), svc.reg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replica{srv: srv}
	svc.replicas = []*replica{r}
	svc.serve(r, ln, tr.handler(srv.Handler()))
	return svc, nil
}

// startFleet builds a three-replica fleet the way the daemon does in
// cluster mode — clusterserve.New with the flag defaults, then Node.Start
// so the health probers and the rejoin warm-up run — and waits until every
// replica has finished its warm-up.
func startFleet(s *schedule.Schedule, tr *tracer) (*service, error) {
	svc := &service{reg: metrics.NewRegistry()}
	lns := make([]net.Listener, fleetSize)
	peers := map[string]string{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[strconv.Itoa(i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		id := strconv.Itoa(i)
		srv, err := attrserver.New(serverConfig(s, id, tr), svc.reg)
		if err == nil {
			var node *clusterserve.Node
			node, err = clusterserve.New(clusterserve.Config{
				ReplicaID: id,
				Peers:     peers,
				Server:    srv,
				Client:    tr.hopClient(),
			}, svc.reg)
			if err == nil {
				r := &replica{srv: srv, node: node}
				svc.replicas = append(svc.replicas, r)
				svc.serve(r, ln, tr.handler(node.Handler()))
				continue
			}
		}
		for _, l := range lns[i:] {
			l.Close()
		}
		svc.close()
		return nil, err
	}
	for _, r := range svc.replicas {
		r.node.Start()
	}
	if err := svc.awaitWarm(30 * time.Second); err != nil {
		svc.close()
		return nil, err
	}
	return svc, nil
}

// awaitWarm waits until every node's rejoin warm-up has finished: its
// sync-lag gauge is set as the warm-up returns, just before the replica
// reports healthy.
func (svc *service) awaitWarm(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		warm := 0
		lag := gather(svc.reg)
		for i, r := range svc.replicas {
			if lag["fairco2_cluster_sync_lag_seconds{replica="+strconv.Itoa(i)+"}"] > 0 && r.srv.HealthStatus() == attrserver.HealthOK {
				warm++
			}
		}
		if warm == len(svc.replicas) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not warm after %v (%d of %d replicas)", limit, warm, len(svc.replicas))
		}
		time.Sleep(time.Millisecond)
	}
}

// ready checks each replica's /healthz through the benchmark client, which
// also opens the client's connections before any timing starts.
func (svc *service) ready(c *http.Client) error {
	for _, r := range svc.replicas {
		resp, err := c.Get(r.url + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("replica %s: healthz status %d", r.url, resp.StatusCode)
		}
	}
	return nil
}

// fingerprints returns every replica's config fingerprint.
func (svc *service) fingerprints() []uint32 {
	out := make([]uint32, len(svc.replicas))
	for i, r := range svc.replicas {
		out[i] = r.srv.Fingerprint()
	}
	return out
}

// close stops the probers and listeners and waits for the serve loops.
func (svc *service) close() {
	for _, r := range svc.replicas {
		if r.node != nil {
			r.node.Stop()
		}
	}
	for _, r := range svc.replicas {
		if r.hs != nil {
			r.hs.Close()
		}
	}
	svc.serving.Wait()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// newClient is the load generator's HTTP client: keep-alive, at most two
// connections per replica.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        8,
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			IdleConnTimeout:     90 * time.Second,
		},
		Timeout: 60 * time.Second,
	}
}
