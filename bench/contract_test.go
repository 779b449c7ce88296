package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram keeps the contract file and the program's
// own metric tables from drifting apart: same workloads, same metric names,
// units and directions, in the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}

	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, program has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d = %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}

	seen := make(map[string]bool)
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric name %q outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q: unit %q outside the contract's alphabet", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bj.EndToEnd) != len(driverE2E) {
		t.Fatalf("%d end_to_end metrics declared, program reports %d", len(bj.EndToEnd), len(driverE2E))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		spec := e2eSpecOf(driverE2E[i])
		if m.Name != spec.name || m.Unit != spec.unit || m.Better != spec.better {
			t.Errorf("end_to_end[%d] = %+v, program has %s/%s/%s", i, m, spec.name, spec.unit, spec.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check("end_to_end", m.Name, m.Unit, m.Better)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}

	want := append(append([]layerSpec(nil), layerSpecs...), driverLayerExtras()...)
	if len(bj.PerLayer) != len(want) {
		t.Fatalf("%d per_layer metrics declared, program reports %d", len(bj.PerLayer), len(want))
	}
	if len(want) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(want))
	}
	for i, m := range bj.PerLayer {
		if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, want[i])
		}
		check("per_layer", m.Name, m.Unit, m.Better)
	}
}
