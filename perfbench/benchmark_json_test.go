package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which names the
// workloads and metrics for readers of the repository, in step with the
// tables the benchmark reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, code %s %s %s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
