package main

import (
	"math"
	"sort"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced. A
// run must pass its own correctness checks and emit exactly the metric
// names BENCHMARK.json declares for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live overlays")
	}
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, name := range []string{"kv-zipf", "stream"} {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 7, seconds: smokeSeconds, trace: trace, smoke: true, outDir: t.TempDir()}
			out, _, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct {
				t.Errorf("%s trace=%v: violations %v", name, trace, out.violations)
			}
			if out.Attempted == 0 {
				t.Errorf("%s trace=%v: no operations attempted", name, trace)
			}
			want := e2e
			if trace {
				want = layer
			}
			var got []string
			for n, m := range out.Metrics {
				got = append(got, n)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, n, m.Value)
				}
			}
			if !sameNames(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json names %v", name, trace, sorted(got), sorted(want))
			}
		}
	}
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

func sameNames(a, b []string) bool {
	a, b = sorted(a), sorted(b)
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

// TestQuantileTail checks that a tail percentile needs minTail samples
// beyond it and that nearest-rank picks raw samples.
func TestQuantileTail(t *testing.T) {
	s := make([]float64, 999)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if _, err := quantile(s, 0.99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	s = append(s, 1000)
	if v, err := quantile(s, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := quantile(s[:3], 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestSelfTime checks that a parent's self time excludes the union of
// its children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100, name: spanSession},
		{id: 2, parent: 1, start: 10, end: 30, name: spanOpen},
		{id: 3, parent: 1, start: 20, end: 50, name: spanRead},
		{id: 4, parent: 1, start: 90, end: 120, name: spanRead},
	}
	for _, r := range selfTimes(spans) {
		if r.name == "blob.session" && r.self != 50 {
			t.Errorf("session self time = %v, want 50ns", r.self)
		}
	}
}
