package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mars/internal/faults"
)

// short is the self-test size of every workload: one small operation.
// Seed 1000 is the scenario internal/deploy's own loopback test checks.
func short(workload string) runConfig {
	return runConfig{workload: workload, seed: 1000, budget: time.Millisecond, short: true}
}

// TestShortRunsPassTheirChecks runs each workload at its short size
// through the command's printing path and checks the result line.
func TestShortRunsPassTheirChecks(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		t.Run(w, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := runWith(short(w), &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed > rep.Attempted {
				t.Fatalf("result %+v", rep)
			}
			for _, m := range endToEnd {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
		})
	}
}

// TestCorruptedExpectationCountsFailures scores the simulated workloads
// against a wrong culprit: every operation must then count as failed,
// while the reference checks still pass.
func TestCorruptedExpectationCountsFailures(t *testing.T) {
	for _, w := range []string{"batch-k4", "stream-k16"} {
		t.Run(w, func(t *testing.T) {
			cfg := short(w)
			cfg.corrupt = true
			rep, o := execute(cfg, workloads[w])
			if !rep.Correct {
				t.Fatalf("reference checks failed: %v", o.problems)
			}
			if rep.Attempted == 0 || rep.Failed != rep.Attempted {
				t.Fatalf("failed %d of %d attempted, want all", rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestTracingDoesNotChangeOutcomes checks that a traced run simulates
// exactly what an untraced run of the same seed does, and reports every
// per-layer metric.
func TestTracingDoesNotChangeOutcomes(t *testing.T) {
	for _, w := range []string{"batch-k4", "stream-k16"} {
		t.Run(w, func(t *testing.T) {
			plain, po := execute(short(w), workloads[w])
			cfg := short(w)
			cfg.trace = true
			traced, to := execute(cfg, workloads[w])
			if !plain.Correct || !traced.Correct {
				t.Fatalf("checks failed: untraced %v, traced %v", po.problems, to.problems)
			}
			if po.sim == "" || po.sim != to.sim {
				t.Fatalf("traced outcome differs:\n%s\nuntraced:\n%s", to.sim, po.sim)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
			}
			if traced.Metrics["dataplane.hook_s"].Value <= 0 || traced.Metrics["netsim.self_s"].Value <= 0 {
				t.Errorf("simulator layers not measured: %+v", traced.Metrics)
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the ones this command prints the same.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestBatchTrialsAreFixed checks that batch-k4's trial list follows from
// the arguments alone and weighs the fault kinds alike.
func TestBatchTrialsAreFixed(t *testing.T) {
	cfg := runConfig{workload: "batch-k4", seed: 3, budget: 20 * time.Second}
	trials := batchTrials(cfg)
	if len(trials) != 30 {
		t.Fatalf("%d trials at 20 s, want 30", len(trials))
	}
	perKind := map[faults.Kind]int{}
	for _, tc := range trials {
		perKind[tc.Fault]++
	}
	for _, k := range faults.Kinds() {
		if perKind[k] != 6 {
			t.Errorf("%v: %d trials, want 6", k, perKind[k])
		}
	}
	if again := batchTrials(cfg); !reflect.DeepEqual(again, trials) {
		t.Errorf("trial list differs between two calls")
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct {
		n       int
		wantPct float64
	}{{100, 90}, {1000, 99}, {40, 75}, {19, 50}} {
		ys := make([]float64, c.n)
		for i := range ys {
			ys[i] = float64(i)
		}
		if _, p := tail(ys); p != c.wantPct {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.wantPct)
		}
	}
	if v, _ := tail(xs); v != quantile(xs, 0.9) {
		t.Errorf("tail value %v, want p90 %v", v, quantile(xs, 0.9))
	}
}
