package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestCompleteFillsAndRefuses(t *testing.T) {
	r := &run{trace: true}
	r.add("dbt.instrs", "count", 3)
	if err := r.complete(perLayer); err != nil {
		t.Fatal(err)
	}
	if len(r.metrics) != len(perLayer) {
		t.Fatalf("%d metrics after completion, want %d", len(r.metrics), len(perLayer))
	}
	r = &run{trace: true}
	r.add("no.such_metric", "count", 1)
	if err := r.complete(perLayer); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	r = &run{}
	if err := r.complete(endToEnd); err == nil {
		t.Error("a run without end-to-end metrics was accepted")
	}
}

// TestTablesMatchBenchmarkJSON keeps the metric tables in step with the
// BENCHMARK.json declaration at the repository root.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, table []metric, got []metric) {
		if len(got) != len(table) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(got), len(table))
		}
		for i := range table {
			if got[i] != table[i] {
				t.Errorf("%s %d: BENCHMARK.json declares %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, table[i].Name, table[i].Unit)
			}
		}
	}
	var e2e, layer []metric
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, metric{Name: m.Name, Unit: m.Unit})
	}
	for _, m := range decl.PerLayer {
		layer = append(layer, metric{Name: m.Name, Unit: m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program %v", names, workloadNames())
	}
}

// TestExactAcrossRunsKeyedByCode checks that a moved counter fails a later
// run of the same code and seed, but not a run of other code.
func TestExactAcrossRunsKeyedByCode(t *testing.T) {
	dir := t.TempDir()
	check := func(code string, v float64) []string {
		r := &run{workload: "life-wear", seed: 7, log: io.Discard, stateDir: dir, code: code}
		r.addExact("dbt.translations", "count", v)
		if err := r.checkExactAcrossRuns(); err != nil {
			t.Fatal(err)
		}
		return r.problems
	}
	if p := check("parent", 10); len(p) != 0 {
		t.Fatalf("first run failed: %v", p)
	}
	if p := check("parent", 10); len(p) != 0 {
		t.Errorf("a repeat of the same counters failed: %v", p)
	}
	if p := check("change", 8); len(p) != 0 {
		t.Errorf("other code moving a counter failed: %v", p)
	}
	if p := check("change", 9); len(p) != 1 {
		t.Errorf("the same code moving a counter gave %d problems, want 1", len(p))
	}
}
