package attrserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

// firstDraw returns the first schedule.Generate draw (seed 1, the paper's
// 22-workload cap) with the given workload count and, when slices is
// positive, that many slices.
func firstDraw(tb testing.TB, workloads, slices int) *schedule.Schedule {
	tb.Helper()
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = 22
	rng := rand.New(rand.NewSource(1))
	for {
		s, err := schedule.Generate(gen, rng)
		if err != nil {
			tb.Fatal(err)
		}
		if len(s.Workloads) == workloads && (slices <= 0 || s.Slices == slices) {
			return s
		}
	}
}

// drawServer serves sched with the daemon's defaults at budget 1000.
func drawServer(tb testing.TB, sched *schedule.Schedule) *Server {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Schedule = sched
	cfg.Budget = 1000
	srv, err := New(cfg, metrics.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// BenchmarkDeltaEdit times one POST /v1/demand/delta through
// Server.Handler() with the daemon's defaults, without sockets: a
// fair-co2 what-if, a ground-truth what-if and a commit on a 12-workload,
// 7-slice schedule, the median shape of the served-path benchmark's decks,
// and a commit on its largest, 17 workloads over 9 slices. Each iteration
// alternates tenant 0 between two core counts, neither its initial one,
// so every iteration changes the schedule.
func BenchmarkDeltaEdit(b *testing.B) {
	median, largest := firstDraw(b, 12, 7), firstDraw(b, 17, 9)
	cases := []struct {
		name, method string
		commit       bool
		sched        *schedule.Schedule
	}{
		{"whatif-fair-co2", MethodFairCO2, false, median},
		{"whatif-ground-truth", MethodGroundTruth, false, median},
		{"commit", MethodFairCO2, true, median},
		{"commit-17x9", MethodFairCO2, true, largest},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			h := drawServer(b, tc.sched).Handler()
			var bodies [][]byte
			for _, c := range schedule.DefaultGeneratorConfig().CoreChoices {
				if c != tc.sched.Workloads[0].Cores && len(bodies) < 2 {
					bodies = append(bodies, []byte(fmt.Sprintf(`{"tenant":0,"cores":%d,"method":%q,"commit":%v}`, c, tc.method, tc.commit)))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/demand/delta", bytes.NewReader(bodies[i%2])))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkQueryHit times one cache hit through Server.Handler() with the
// daemon's defaults, without sockets, on BenchmarkDeltaEdit's 12-workload,
// 7-slice draw: the full-window fair-co2 answer as attribution for every
// tenant and for one, as shares and as a bill. Each case warms its key
// first, so every iteration parses, looks up and renders.
func BenchmarkQueryHit(b *testing.B) {
	h := drawServer(b, firstDraw(b, 12, 7)).Handler()
	cases := []struct{ name, target string }{
		{"attribution", "/v1/attribution?method=fair-co2"},
		{"attribution-tenant", "/v1/attribution?method=fair-co2&tenant=3"},
		{"share", "/v1/share?method=fair-co2"},
		{"billing", "/v1/billing?method=fair-co2"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, tc.target, nil)
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
