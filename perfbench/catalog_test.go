package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the catalog the benchmark reports from must list
// the same workloads and metrics, with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		Workloads []Workload `json:"workloads"`
		EndToEnd  []struct {
			Metric
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %+v", i, w, Workloads[i])
		}
	}
	same := func(kind string, got, want Metric) {
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("%s metric: BENCHMARK.json %s %s %s, catalog %s %s %s",
				kind, got.Name, got.Unit, got.Better, want.Name, want.Unit, want.Better)
		}
	}
	if len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range spec.EndToEnd {
		same("end-to-end", m.Metric, EndToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		same("per-layer", m, PerLayer[i])
	}
}
