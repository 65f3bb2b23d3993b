package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloadNames[i])
		}
	}
	for _, set := range []struct {
		doc  []struct{ Name, Unit string }
		here []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.doc) != len(set.here) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d here", len(set.doc), len(set.here))
		}
		for i, m := range set.doc {
			if m.Name != set.here[i].name || m.Unit != set.here[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, set.here[i].name, set.here[i].unit)
			}
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 3, 2)
		c, _ := buildWorkload(name, 4, 2)
		body := func(w *workload) string {
			out, _ := json.Marshal([]any{w.plan[:10], w.keys[0].request()})
			return string(out)
		}
		if body(a) != body(b) {
			t.Errorf("%s: one seed built two different workloads", name)
		}
		if body(a) == body(c) {
			t.Errorf("%s: two seeds built the same workload", name)
		}
	}
}
