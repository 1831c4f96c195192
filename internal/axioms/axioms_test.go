package axioms

import (
	"math"
	"strings"
	"testing"

	"fairco2/internal/attribution"
)

func TestGroundTruthSatisfiesAllAxioms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tolerance = 1e-8
	report := CheckAll(attribution.GroundTruth{}, cfg)
	if !report.Satisfied() {
		for _, v := range report.Violations {
			t.Errorf("%v", v)
		}
	}
	if report.Method != "ground-truth-shapley" {
		t.Errorf("method name %q", report.Method)
	}
}

func TestRUPViolatesNullPlayer(t *testing.T) {
	// RUP bills pure resource-time: the shadowed near-null workload pays
	// for its core-seconds even though it never drove capacity.
	cfg := DefaultConfig()
	violations := CheckNullPlayer(attribution.RUPBaseline{}, cfg)
	if len(violations) == 0 {
		t.Fatal("RUP should violate the null-player property")
	}
	for _, v := range violations {
		if v.Axiom != "null-player" {
			t.Errorf("unexpected axiom %q", v.Axiom)
		}
	}
	// But RUP does satisfy efficiency, symmetry and linearity.
	if vs := CheckEfficiency(attribution.RUPBaseline{}, cfg); len(vs) != 0 {
		t.Errorf("RUP efficiency: %v", vs)
	}
	if vs := CheckSymmetry(attribution.RUPBaseline{}, cfg); len(vs) != 0 {
		t.Errorf("RUP symmetry: %v", vs)
	}
	if vs := CheckLinearity(attribution.RUPBaseline{}, cfg); len(vs) != 0 {
		t.Errorf("RUP linearity: %v", vs)
	}
}

func TestTemporalShapleyNearAxioms(t *testing.T) {
	// Fair-CO2's approximation keeps efficiency, symmetry and linearity
	// exactly; it honours the null-player bound far better than RUP.
	cfg := DefaultConfig()
	cfg.Tolerance = 1e-8
	m := attribution.TemporalShapley{}
	if vs := CheckEfficiency(m, cfg); len(vs) != 0 {
		t.Errorf("efficiency: %v", vs)
	}
	if vs := CheckSymmetry(m, cfg); len(vs) != 0 {
		t.Errorf("symmetry: %v", vs)
	}
	if vs := CheckLinearity(m, cfg); len(vs) != 0 {
		t.Errorf("linearity: %v", vs)
	}
	fairNull := CheckNullPlayer(m, cfg)
	rupNull := CheckNullPlayer(attribution.RUPBaseline{}, cfg)
	if len(fairNull) >= len(rupNull) && len(rupNull) > 0 {
		worst := func(vs []Violation) float64 {
			m := 0.0
			for _, v := range vs {
				if v.Magnitude > m {
					m = v.Magnitude
				}
			}
			return m
		}
		if worst(fairNull) >= worst(rupNull) {
			t.Errorf("temporal shapley null-player magnitude %.5f should be below RUP %.5f",
				worst(fairNull), worst(rupNull))
		}
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Method: "x", Violations: []Violation{
		{Axiom: "efficiency", Magnitude: 0.5},
		{Axiom: "efficiency", Magnitude: 0.1},
		{Axiom: "symmetry", Magnitude: 0.2},
	}}
	if r.Satisfied() {
		t.Error("should not be satisfied")
	}
	counts := r.ByAxiom()
	if counts["efficiency"] != 2 || counts["symmetry"] != 1 {
		t.Errorf("counts %v", counts)
	}
	v := Violation{Axiom: "symmetry", Magnitude: 0.25, Detail: "twins differ"}
	if !strings.Contains(v.Error(), "symmetry") || !strings.Contains(v.Error(), "twins differ") {
		t.Errorf("Error() = %q", v.Error())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Instances: 0, Tolerance: 0, Budget: 1},
		{Instances: 1, Tolerance: -1, Budget: 1},
		{Instances: 1, Tolerance: 0, Budget: 0},
	}
	for i, cfg := range bad {
		if vs := CheckEfficiency(attribution.GroundTruth{}, cfg); len(vs) == 0 {
			t.Errorf("case %d: expected a violation for invalid config", i)
		}
		if vs := CheckSymmetry(attribution.GroundTruth{}, cfg); len(vs) == 0 {
			t.Errorf("case %d: symmetry", i)
		}
		if vs := CheckNullPlayer(attribution.GroundTruth{}, cfg); len(vs) == 0 {
			t.Errorf("case %d: null player", i)
		}
		if vs := CheckLinearity(attribution.GroundTruth{}, cfg); len(vs) == 0 {
			t.Errorf("case %d: linearity", i)
		}
	}
}

func TestCheckShares(t *testing.T) {
	cases := []struct {
		name   string
		shares []float64
		n      int
		ok     bool
	}{
		{"exact", []float64{250, 750}, 2, true},
		{"within tolerance", []float64{250, 750 + 5e-7}, 2, true},
		{"overshoots", []float64{251, 750}, 2, false},
		{"undershoots", []float64{250, 749}, 2, false},
		{"wrong length", []float64{1000}, 2, false},
		{"NaN", []float64{math.NaN(), 1000}, 2, false},
		{"infinite", []float64{math.Inf(1), 1000}, 2, false},
		{"negative", []float64{-1, 1001}, 2, false},
	}
	for _, tc := range cases {
		err := CheckShares(tc.shares, tc.n, 1000, 1e-9)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckShares = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if v, isViolation := err.(Violation); err != nil && (!isViolation || v.Axiom != "efficiency") {
			t.Errorf("%s: error %#v is not an efficiency Violation", tc.name, err)
		}
	}
}
