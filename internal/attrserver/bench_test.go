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

// benchSchedule is the first schedule.Generate draw (seed 1, the paper's
// 22-workload cap) with 12 workloads over 7 slices: the median shape of
// the served-path benchmark's decks.
func benchSchedule(b *testing.B) *schedule.Schedule {
	b.Helper()
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = 22
	rng := rand.New(rand.NewSource(1))
	for {
		s, err := schedule.Generate(gen, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Workloads) == 12 && s.Slices == 7 {
			return s
		}
	}
}

// BenchmarkDeltaEdit times one POST /v1/demand/delta through
// Server.Handler() with the daemon's defaults, without sockets: a
// fair-co2 what-if, a ground-truth what-if and a commit. Each iteration
// alternates tenant 0 between two core counts, neither its initial one,
// so every iteration changes the schedule.
func BenchmarkDeltaEdit(b *testing.B) {
	sched := benchSchedule(b)
	var cores []int
	for _, c := range schedule.DefaultGeneratorConfig().CoreChoices {
		if c != sched.Workloads[0].Cores && len(cores) < 2 {
			cores = append(cores, c)
		}
	}
	cases := []struct {
		name, method string
		commit       bool
	}{
		{"whatif-fair-co2", MethodFairCO2, false},
		{"whatif-ground-truth", MethodGroundTruth, false},
		{"commit", MethodFairCO2, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Schedule = sched
			cfg.Budget = 1000
			srv, err := New(cfg, metrics.NewRegistry())
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			var bodies [2][]byte
			for i, c := range cores {
				bodies[i] = []byte(fmt.Sprintf(`{"tenant":0,"cores":%d,"method":%q,"commit":%v}`, c, tc.method, tc.commit))
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
