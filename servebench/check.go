package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// wireAnswer is the JSON the query endpoints and the delta endpoint
// answer with, as documented in the README's attribution-service section.
type wireAnswer struct {
	Method string `json:"method"`
	Period struct {
		Start int `json:"start"`
		End   int `json:"end"`
	} `json:"period"`
	Budget    float64 `json:"budget_gco2e"`
	Workloads []struct {
		ID    int     `json:"id"`
		Grams float64 `json:"gco2e"`
	} `json:"workloads"`
	Shares []struct {
		ID    int     `json:"id"`
		Share float64 `json:"share"`
	} `json:"shares"`
	Billing *struct {
		Price float64 `json:"price_per_tonne_usd"`
		Lines []struct {
			ID    int     `json:"id"`
			Grams float64 `json:"gco2e"`
			USD   float64 `json:"usd"`
		} `json:"lines"`
	} `json:"billing"`
	// Delta endpoint only.
	Committed   bool   `json:"committed"`
	Fingerprint string `json:"config_fingerprint"`
	Delta       struct {
		Coalitions        int `json:"shapley_coalitions_reevaluated"`
		PeriodsRecomputed int `json:"temporal_periods_recomputed"`
	} `json:"delta"`
}

func decodeAnswer(body []byte) (*wireAnswer, error) {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, nil
}

// query is what one GET asked for.
type query struct {
	endpoint string // attribution, share or billing
	method   string
	period   period
	tenant   int // -1 asks for every workload
}

// row is one (id, grams) pair of an answer, whatever the endpoint.
type row struct {
	id    int
	grams float64
}

// Each check below returns problems prefixed with its own name, so a test
// can tell which check rejected an answer.

// checkEcho: the answer is for the method and period that were asked for,
// under the prorated budget.
func checkEcho(q query, a *wireAnswer, want *oracleAnswer) []string {
	var out []string
	if a.Method != q.method || a.Period.Start != q.period.start || a.Period.End != q.period.end {
		out = append(out, fmt.Sprintf("echo: asked %s %v, answered %s %d:%d", q.method, q.period, a.Method, a.Period.Start, a.Period.End))
	}
	if !near(a.Budget, want.budget, want.budget) {
		out = append(out, fmt.Sprintf("echo: budget %v, want %v", a.Budget, want.budget))
	}
	return out
}

// rowsOf extracts the grams rows of whichever endpoint answered.
func rowsOf(q query, a *wireAnswer) []row {
	var rows []row
	switch q.endpoint {
	case "share":
		for _, s := range a.Shares {
			rows = append(rows, row{s.ID, s.Share})
		}
	case "billing":
		if a.Billing != nil {
			for _, l := range a.Billing.Lines {
				rows = append(rows, row{l.ID, l.Grams})
			}
		}
	default:
		for _, w := range a.Workloads {
			rows = append(rows, row{w.ID, w.Grams})
		}
	}
	return rows
}

// checkOracle: every row equals the oracle, in the oracle's order; a
// tenant filter yields exactly that tenant's row. Share rows are compared
// as fractions of the oracle's total.
func checkOracle(q query, rows []row, want *oracleAnswer) []string {
	scale := want.budget
	wantOf := want.gramsOf
	if q.endpoint == "share" {
		total := 0.0
		for _, g := range want.grams {
			total += g
		}
		scale = 1
		wantOf = func(id int) float64 { return want.gramsOf(id) / total }
	}
	var ids []int
	if q.tenant >= 0 {
		ids = []int{q.tenant}
	} else {
		ids = want.ids
	}
	if len(rows) != len(ids) {
		return []string{fmt.Sprintf("oracle: %d rows, want %d", len(rows), len(ids))}
	}
	var out []string
	for i, r := range rows {
		if r.id != ids[i] {
			out = append(out, fmt.Sprintf("oracle: row %d is workload %d, want %d", i, r.id, ids[i]))
			continue
		}
		if w := wantOf(r.id); !near(r.grams, w, scale) {
			out = append(out, fmt.Sprintf("oracle: workload %d %v, want %v", r.id, r.grams, w))
		}
	}
	return out
}

// checkFinite: every value is a finite, non-negative number.
func checkFinite(rows []row) []string {
	var out []string
	for _, r := range rows {
		switch {
		case math.IsNaN(r.grams) || math.IsInf(r.grams, 0):
			out = append(out, fmt.Sprintf("finite: workload %d is %v", r.id, r.grams))
		case r.grams < 0:
			out = append(out, fmt.Sprintf("nonneg: workload %d is %v", r.id, r.grams))
		}
	}
	return out
}

// checkEfficiency: an unfiltered answer distributes exactly its budget
// (grams) or all of it (shares sum to 1).
func checkEfficiency(q query, rows []row, budget float64) []string {
	if q.tenant >= 0 {
		return nil
	}
	total := 0.0
	for _, r := range rows {
		total += r.grams
	}
	if q.endpoint == "share" {
		if !near(total, 1, 1) {
			return []string{fmt.Sprintf("shares: unfiltered shares sum to %v", total)}
		}
		return nil
	}
	if !near(total, budget, budget) {
		return []string{fmt.Sprintf("efficiency: grams sum to %v, budget %v", total, budget)}
	}
	return nil
}

// checkBilling: usd = gco2e / 1e6 x price, at the configured price.
func checkBilling(q query, a *wireAnswer) []string {
	if q.endpoint != "billing" {
		return nil
	}
	if a.Billing == nil {
		return []string{"usd: billing answer has no billing block"}
	}
	var out []string
	if a.Billing.Price != pricePerTonne {
		out = append(out, fmt.Sprintf("usd: price %v, want %v", a.Billing.Price, pricePerTonne))
	}
	for _, l := range a.Billing.Lines {
		if want := l.Grams / 1e6 * pricePerTonne; !near(l.USD, want, math.Abs(want)) {
			out = append(out, fmt.Sprintf("usd: workload %d billed %v for %v g, want %v", l.ID, l.USD, l.Grams, want))
		}
	}
	return out
}

// checkQuery runs every check on one GET answer.
func checkQuery(q query, a *wireAnswer, want *oracleAnswer) []string {
	rows := rowsOf(q, a)
	out := checkEcho(q, a, want)
	out = append(out, checkOracle(q, rows, want)...)
	out = append(out, checkFinite(rows)...)
	out = append(out, checkEfficiency(q, rows, want.budget)...)
	return append(out, checkBilling(q, a)...)
}
