package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// ownLayers names, per workload, layer metrics that must be nonzero on it.
var ownLayers = map[string][]string{
	"plan":     {"lp.pivots", "lp.phase2_s", "treedp.ssqpp_s", "graph.build_metric_s", "agg.add_clients_s", "flow.augmentations"},
	"simulate": {"netsim.events", "netsim.run_s", "netsim.queueing_s", "netsim.retries", "netsim.pdes_rounds_per_event"},
	"daemon":   {"daemon.tick_self_s", "heat.recent_drift_s", "daemon.alerts", "lp.solves", "daemon.tick_ms_p99"},
}

// deterministic names the metrics that must repeat exactly at one seed.
var deterministic = map[bool][]string{
	false: {"delay", "load_factor"},
	true:  {"lp.pivots", "lp.solves", "flow.augmentations", "netsim.events", "netsim.retries", "daemon.alerts", "daemon.moves", "lp.warm_ratio"},
}

// TestSmoke runs every workload at tiny size, untraced and traced, twice
// at the same seed: each run must pass its own checks, print exactly the
// metrics BENCHMARK.json lists with their units, and repeat the first run's
// digest and deterministic metrics.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var first *result
			for rep := 0; rep < 2; rep++ {
				res, err := measure(w, 7, time.Millisecond, traced, true)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.name, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
					}
				}
				if traced {
					for _, name := range ownLayers[w.name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s: layer metric %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
						}
					}
				}
				if first == nil {
					first = res
					continue
				}
				if res.digest != first.digest {
					t.Errorf("%s traced=%v: digest %s, first run %s", w.name, traced, res.digest, first.digest)
				}
				for _, name := range deterministic[traced] {
					if a, b := res.Metrics[name].Value, first.Metrics[name].Value; a != b {
						t.Errorf("%s traced=%v: %s = %v, first run %v", w.name, traced, name, a, b)
					}
				}
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan", "--trace", "2"},
		{"--workload", "plan", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut discard
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if out.n != 0 {
			t.Errorf("run(%v) printed %d bytes to stdout", args, out.n)
		}
	}
}

type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}
