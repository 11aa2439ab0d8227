package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors the driver's contract for ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// program emits from in step: same workloads and reasons, same metrics,
// units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if (got[i] != jsonMetric{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// smokeRun runs one workload at smoke scale in-process.
func smokeRun(t *testing.T, w *workload, trace bool) *runOutcome {
	t.Helper()
	res, err := runWorkload(context.Background(), runConfig{
		w: w, sc: scales["smoke"], seed: 1, seconds: 0.15, trace: trace, out: t.TempDir(), setups: 1,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload once untraced and twice traced on small
// inputs: every metric BENCHMARK.json names must come out with its unit,
// no op may fail the oracle, and the counters that are exact must be
// identical across runs however many ops each fitted in — net_bytes_per_op
// between the engine's own count and the replayed executes', the rest
// between the two traced runs.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	passBased := map[string]bool{"yago-cold": true, "closure-plw": true, "closure-gld-tcp": true, "closure-spill": true}
	exact := []string{
		"rewrite.plans_explored", "physical.iterations", "core.spills",
		"cluster.shuffle_records", "cluster.net_bytes",
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			emitted := func(res *runOutcome, want []jsonMetric) {
				t.Helper()
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present=%v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			u1 := smokeRun(t, w, false)
			emitted(u1, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if u1.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", m.Name, u1.Metrics[m.Name].Value)
				}
			}
			t1, t2 := smokeRun(t, w, true), smokeRun(t, w, true)
			emitted(t1, b.PerLayer)
			if !passBased[w.name] {
				return
			}
			if t1.Metrics["cluster.net_bytes"].Value != u1.diag["net_bytes_per_op"] {
				t.Errorf("replayed executes moved %v B per op, the engine %v", t1.Metrics["cluster.net_bytes"].Value, u1.diag["net_bytes_per_op"])
			}
			for _, name := range exact {
				if t1.Metrics[name] != t2.Metrics[name] {
					t.Errorf("exact counter %s differs between runs: %v vs %v", name, t1.Metrics[name], t2.Metrics[name])
				}
			}
		})
	}
}

// TestPinnedInputs checks that the seed-1 full-scale inputs still are the
// ones expected.json was computed from.
func TestPinnedInputs(t *testing.T) {
	pin, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	sc := scales[pin.Scale]
	for _, w := range workloads {
		if got, want := fingerprintOf(w, sc, pin.Seed), pin.Workloads[w.name].fingerprint; got != want {
			t.Errorf("%s: inputs %+v, pinned %+v", w.name, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	file := func(p50 ...float64) *resultFile {
		f := &resultFile{Seed: 1, Seconds: 8, Scale: "full", Workloads: map[string]*workloadResults{}}
		for _, w := range workloads {
			wr := &workloadResults{EndToEnd: map[string][]float64{}, Diag: map[string][]float64{}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.Name] = []float64{100}
			}
			wr.EndToEnd["op_ms_p50"] = p50
			wr.Diag["net_bytes_per_op"] = []float64{0}
			wr.Diag["query_ms_p99"] = []float64{20}
			f.Workloads[w.name] = wr
		}
		return f
	}
	if got := compareResults(file(100, 101, 102), file(110, 111, 112)); got != 0 {
		t.Errorf("10%% worse against a 25%% bound: status %d, want 0", got)
	}
	if got := compareResults(file(100, 101, 102), file(140, 141, 142)); got != 1 {
		t.Errorf("40%% worse against a 25%% bound: status %d, want 1", got)
	}
	if got := compareResults(file(60, 100, 140, 180), file(170, 171, 172, 173)); got != 0 {
		t.Errorf("spread wider than the bound must be unresolved, not a regression: status %d", got)
	}
	if med, iqr := medianIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); med != 5.5 || iqr != 5.5 {
		t.Errorf("medianIQR(1..10) = %v, %v; Python's statistics gives 5.5, 5.5", med, iqr)
	}
}
