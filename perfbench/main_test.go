package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinySizes shrink every workload so the smoke test runs in seconds.
var tinySizes = map[string]size{
	"fleet-durable": {homes: 8, hours: 3, trainHours: 24, minPasses: 1},
	"sparse-faults": {homes: 8, hours: 6, trainHours: 48, minPasses: 1},
	"coap-devices":  {homes: 8, hours: 2, trainHours: 24, minPasses: 1},
}

type benchSpec struct {
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

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// inTempDir runs the test from a temporary directory, where the benchmark
// writes its state and span files.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best effort
}

// TestMetricsMatchBenchmarkJSON runs every workload at a tiny size, both
// untraced and traced, and checks that each prints exactly the metrics
// BENCHMARK.json names for that mode, each with its unit, and passes the
// oracle.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	inTempDir(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(io.Discard, wl, 3, 0, traced, tinySizes[wl])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			var extra []string
			for name, m := range res.Metrics {
				unit, ok := want[name]
				if !ok {
					extra = append(extra, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", wl, traced, name, m.Unit, unit)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics not in BENCHMARK.json: %v", wl, traced, extra)
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: missing metric %s", wl, traced, name)
				}
			}
		}
	}
}

// TestOracleCatchesCorruptAlert corrupts one alert of the solo reference
// and checks that a hub pass then fails the oracle.
func TestOracleCatchesCorruptAlert(t *testing.T) {
	inTempDir(t)
	in, err := generate("fleet-durable", 3, tinySizes["fleet-durable"])
	if err != nil {
		t.Fatal(err)
	}
	ctxs, err := trainContexts(in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(in, ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	r := newRunner(in, ref, stateRoot)
	if _, err := r.runPass(0); err != nil {
		t.Fatalf("clean pass: %v", err)
	}
	corrupted := false
	for i := range ref {
		if len(ref[i].alerts) > 0 {
			ref[i].alerts[0].reportedAt += windowDur
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("the tiny fleet raised no alert to corrupt")
	}
	_, err = r.runPass(1)
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("pass against a corrupted reference returned %v, want an oracle failure", err)
	}
}
