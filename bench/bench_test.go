package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// tiny shrinks a workload to test scale: 40 tuples per tick, so the
// 0.5 s budget below gives an 8000-word, 200 ms open leg and 4000-word
// closed repetitions. No assertion here reads a clock.
func tiny(wl workload) workload {
	wl.rate, wl.capacity = 40_000, 80_000
	wl.vocab = min(wl.vocab, 20_000)
	return wl
}

const tinySeconds = 0.5

func runTiny(t *testing.T, wl workload, trace bool) (report, runInfo) {
	t.Helper()
	rep, info := runWorkload(runConfig{wl: tiny(wl), seed: 42, seconds: tinySeconds, trace: trace, setups: 1})
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", wl.name, rep.Failed, rep.Attempted, info.Notes)
	}
	if rep.Attempted == 0 || info.Pairs == 0 {
		t.Fatalf("%s: nothing was checked against the oracle (attempted %d, pairs %d)", wl.name, rep.Attempted, info.Pairs)
	}
	return rep, info
}

func names(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func declared(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every workload, end to end, with tracing off: exact agreement with
// the oracle in both legs and exactly the declared end-to-end metrics.
func TestWorkloadsUntraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			rep, _ := runTiny(t, wl, false)
			if got, want := names(rep.Metrics), declared(endToEnd); !equal(got, want) {
				t.Errorf("end-to-end metrics %v, declared %v", got, want)
			}
			for name, m := range rep.Metrics {
				if m.Value == 0 {
					t.Errorf("%s is 0: an end-to-end metric must always measure something", name)
				}
			}
		})
	}
}

// The traced run shares the process-wide span ring, so these run one
// after the other.
func TestWorkloadsTraced(t *testing.T) {
	for _, wl := range workloads {
		rep, _ := runTiny(t, wl, true)
		if got, want := names(rep.Metrics), declared(perLayer); !equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, declared %v", wl.name, got, want)
		}
		m := rep.Metrics
		if !wl.dist && m["route.imbalance_frac"].Value != m["imbalance_frac"].Value {
			t.Errorf("%s: the router replayed alone gives imbalance %v, the engine %v",
				wl.name, m["route.imbalance_frac"].Value, m["imbalance_frac"].Value)
		}
		if m["trace.complete_traces"].Value == 0 {
			t.Errorf("%s: no trace was followed from the spout to a collected result", wl.name)
		}
	}
}

func TestSeedSelectsInput(t *testing.T) {
	wl := tiny(workloads[0])
	a, b, c := generate(wl, 42, 8000), generate(wl, 42, 8000), generate(wl, 43, 8000)
	if a.sha != b.sha {
		t.Errorf("seed 42 hashed to %s, then to %s", a.sha, b.sha)
	}
	if a.sha == c.sha {
		t.Errorf("seeds 42 and 43 both hashed to %s", a.sha)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the bench emits. They must say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range decl.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), implemented as %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(got), len(want))
		}
		for i := range got {
			check(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("over the caps: %d workloads (8), %d end-to-end (16), %d per-layer (128)", len(workloads), len(endToEnd), len(perLayer))
	}
}
