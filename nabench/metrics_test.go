package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists in code and the
// benchmark definition at the root of the repository equal.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code lists %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, def.Workloads[i], w.name, w.why)
		}
	}
}
