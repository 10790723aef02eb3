package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, wl := range workloads {
		if !nameRE.MatchString(wl.name) || seen[wl.name] {
			t.Errorf("workload name %q is malformed or reused", wl.name)
		}
		seen[wl.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's own
// workload and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, wl := range workloads {
		want = append(want, wl.name)
	}
	if !equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !equal(got, want) {
			t.Errorf("BENCHMARK.json lists %v, program emits %v", got, want)
		}
	}
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
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

func TestInputsDigestFollowsSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := generate(wl, 7, 20).digest(), generate(wl, 7, 20).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", wl.name, a, b)
		}
		if c := generate(wl, 8, 20).digest(); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl.name, a)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny op
// count, untraced and traced, and checks the summary it would print.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{wl: wl, seed: 3, ops: 4, trace: traced, setups: 1, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Attempted < 4 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d violations=%v",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, res.violations)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.name, traced, d.name, m, d.unit)
				}
			}
			line, err := json.Marshal(res.summary)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 ||
				keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s traced=%v: summary line %s", wl.name, traced, line)
			}
		}
	}
}
