package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the repeat mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the spread printed here is the one a ten-seed comparison
// computes.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// repeatRuns runs the workload with `runs` consecutive seeds, each in a
// child process of this binary, and prints every end-to-end metric's
// median, run-to-run spread (quartile distance over median) and bound.
func repeatRuns(cfg runConfig, runs int) error {
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < runs; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0", "--out", cfg.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines {
			if strings.HasPrefix(l, "env ") {
				fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, l)
			}
		}
		var o outcome
		if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&o); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !o.Correct {
			return fmt.Errorf("seed %d: incorrect run", seed)
		}
		fmt.Fprintf(os.Stderr, "seed %d: attempted %d failed %d\n", seed, o.Attempted, o.Failed)
		for name, m := range o.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Printf("%s: %d runs, seeds %d..%d\n", cfg.workload, runs, cfg.seed, cfg.seed+int64(runs)-1)
	fmt.Printf("%-20s %14s %10s %8s %-26s %s\n", "metric", "median", "spread", "bound", "", "per seed")
	for _, e := range bf.EndToEnd {
		v := values[e.Name]
		if len(v) == 0 {
			fmt.Printf("%-20s missing\n", e.Name)
			continue
		}
		q1, q3 := quartiles(v)
		med := median(v)
		spread := math.Abs(q3-q1) / med
		verdict := "ok"
		switch {
		case spread > e.Bound:
			verdict = "OVER BOUND"
		case spread > e.Bound/3:
			verdict = "over a third of the bound"
		}
		var each []string
		for _, x := range v {
			each = append(each, strconv.FormatFloat(x, 'g', 5, 64))
		}
		fmt.Printf("%-20s %14.4f %10.4f %8.3f %-26s %s\n", e.Name, med, spread, e.Bound, verdict, strings.Join(each, " "))
	}
	return nil
}
