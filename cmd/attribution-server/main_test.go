package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

func TestConfigValidation(t *testing.T) {
	ok := defaultDaemonConfig()
	if err := ok.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := ok
	bad.Budget = 0
	if err := bad.validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = ok
	bad.MaxWorkloads = 0
	if err := bad.validate(); err == nil {
		t.Error("zero workload cap accepted for a generated schedule")
	}
	bad = ok
	bad.SignalURL = "http://signal"
	bad.SignalMaxStale = 0
	if err := bad.validate(); err == nil {
		t.Error("signal mode with zero max-stale accepted")
	}
}

func TestLoadScheduleGeneratedIsReproducible(t *testing.T) {
	a, err := loadSchedule("", 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadSchedule("", 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices != b.Slices || len(a.Workloads) != len(b.Workloads) {
		t.Errorf("same seed generated different schedules: %d/%d slices, %d/%d workloads",
			a.Slices, b.Slices, len(a.Workloads), len(b.Workloads))
	}
}

func TestLoadScheduleFromCSV(t *testing.T) {
	src := &schedule.Schedule{
		Slices:        4,
		SliceDuration: 3600,
		Workloads: []schedule.Workload{
			{ID: 0, Cores: 8, Start: 0, Duration: 2},
			{ID: 1, Cores: 16, Start: 1, Duration: 3},
		},
	}
	path := filepath.Join(t.TempDir(), "sched.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := loadSchedule(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slices != 4 || len(got.Workloads) != 2 {
		t.Errorf("round-tripped schedule = %d slices, %d workloads", got.Slices, len(got.Workloads))
	}

	if _, err := loadSchedule(filepath.Join(t.TempDir(), "missing.csv"), 0, 0); err == nil {
		t.Error("missing CSV accepted")
	}
}

func TestBuildServerServesQueries(t *testing.T) {
	cfg := defaultDaemonConfig()
	cfg.Seed = 3
	srv, _, err := buildServer(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/attribution?method=rup")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Method    string `json:"method"`
		Workloads []struct {
			ID    int     `json:"id"`
			Grams float64 `json:"gco2e"`
		} `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Method != "rup" || len(out.Workloads) == 0 {
		t.Errorf("response = %+v", out)
	}
	total := 0.0
	for _, w := range out.Workloads {
		total += w.Grams
	}
	if diff := total - float64(cfg.Budget); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("whole-window attribution sums to %v, want the budget %v", total, float64(cfg.Budget))
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = (%v, %v)", resp, err)
	} else {
		resp.Body.Close()
	}
}

func TestBuildServerRejectsBadConfig(t *testing.T) {
	cfg := defaultDaemonConfig()
	cfg.Budget = -1
	if _, _, err := buildServer(cfg, metrics.NewRegistry()); err == nil {
		t.Error("negative budget accepted")
	}
	cfg = defaultDaemonConfig()
	cfg.SchedulePath = "/nonexistent/sched.csv"
	if _, _, err := buildServer(cfg, metrics.NewRegistry()); err == nil {
		t.Error("unreadable schedule path accepted")
	}
}

func TestBuildServerServesDemandDelta(t *testing.T) {
	cfg := defaultDaemonConfig()
	cfg.Seed = 3
	if !cfg.Delta {
		t.Fatal("delta endpoint should default on")
	}
	srv, _, err := buildServer(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"tenant":0,"cores":7,"method":"ground-truth"}`)
	resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Method    string `json:"method"`
		Committed bool   `json:"committed"`
		Workloads []struct {
			ID    int     `json:"id"`
			Grams float64 `json:"gco2e"`
		} `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Method != "ground-truth" || out.Committed || len(out.Workloads) == 0 {
		t.Errorf("response = %+v", out)
	}
	total := 0.0
	for _, w := range out.Workloads {
		total += w.Grams
	}
	if diff := total - float64(cfg.Budget); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("what-if attribution sums to %v, want the budget %v", total, float64(cfg.Budget))
	}

	// The disabled path: no route registered.
	cfg.Delta = false
	srvOff, _, err := buildServer(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(srvOff.Handler())
	defer tsOff.Close()
	respOff, err := http.Post(tsOff.URL+"/v1/demand/delta", "application/json", strings.NewReader(`{"tenant":0}`))
	if err != nil {
		t.Fatal(err)
	}
	respOff.Body.Close()
	if respOff.StatusCode != http.StatusNotFound {
		t.Errorf("-delta=false endpoint: status %d, want 404", respOff.StatusCode)
	}
}
