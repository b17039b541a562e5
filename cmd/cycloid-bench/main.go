// Command cycloid-bench regenerates the tables and figures of the paper's
// evaluation (Section 4). Each experiment id corresponds to one table or
// figure; -exp all runs everything.
//
// With -json it instead runs the Benchmark* workloads (the same cases
// `go test -bench` exercises, defined in internal/bench) through
// testing.Benchmark and appends a run record — ns/op, B/op and
// allocs/op per benchmark — to BENCH_cycloid.json, so performance can be
// tracked across commits.
//
// Usage:
//
//	cycloid-bench -list
//	cycloid-bench -exp fig5
//	cycloid-bench -exp all -quick
//	cycloid-bench -exp fig11 -seed 7 -lookups 5000
//	cycloid-bench -json -bench 'Lookup|Fig12Churn' -label after
//	cycloid-bench -exp fig12 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cycloid/internal/bench"
	"cycloid/internal/experiments"
)

// benchResult is one benchmark measurement inside a run record.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchRun is one invocation of cycloid-bench -json.
type benchRun struct {
	Label     string `json:"label"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and CPU fingerprint the machine: wall-clock figures
	// compare only between runs that share them.
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchFile is the on-disk shape of BENCH_cycloid.json: an append-only
// trajectory of runs.
type benchFile struct {
	Comment string     `json:"comment"`
	Runs    []benchRun `json:"runs"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		seed    = flag.Int64("seed", 1, "random seed; identical seeds reproduce identical tables")
		quick   = flag.Bool("quick", false, "shrink workloads ~10x for a fast smoke run")
		lookups = flag.Int("lookups", 0, "override the experiment's lookup count (0 = default)")
		format  = flag.String("format", "table", "output format: table, csv, or plot (ASCII chart)")

		jsonMode = flag.Bool("json", false, "run Benchmark* workloads via testing.Benchmark and append results to -out")
		benchPat = flag.String("bench", ".", "with -json: regexp selecting which benchmark cases to run")
		label    = flag.String("label", "", "with -json: label for this run record (default: unix timestamp)")
		out      = flag.String("out", "BENCH_cycloid.json", "with -json: output file to append the run record to")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}()

	if *jsonMode {
		if err := runBenchJSON(*benchPat, *label, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	reg := experiments.Registry()
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-24s %s\n", id, reg[id].Description)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick, Lookups: *lookups, Format: *format}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		r, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", r.ID, r.Description)
		if err := r.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
}

// runBenchJSON runs every registry case matching pattern under
// testing.Benchmark and appends one run record to the file at out,
// creating it if absent.
func runBenchJSON(pattern, label, out string) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bad -bench regexp: %w", err)
	}
	if label == "" {
		label = fmt.Sprintf("run-%d", time.Now().Unix())
	}

	// Load (and validate) the existing trajectory before spending minutes
	// benchmarking, so a corrupt file fails fast.
	var file benchFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("existing %s is not valid: %w", out, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	run := benchRun{
		Label:      label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
	matched := 0
	for _, c := range bench.Cases() {
		if !re.MatchString(c.Name) {
			continue
		}
		matched++
		fmt.Printf("benchmark %-28s", c.Name)
		r := testing.Benchmark(c.F)
		res := benchResult{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		run.Benchmarks = append(run.Benchmarks, res)
		fmt.Printf(" %8d iter  %14.0f ns/op  %10d B/op  %8d allocs/op\n",
			res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark matches %q", pattern)
	}

	if file.Comment == "" {
		file.Comment = "Benchmark trajectory appended by cmd/cycloid-bench -json; ns/op, B/op and allocs/op per case."
	}
	file.Runs = append(file.Runs, run)

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark(s) to %s (label %q)\n", matched, out, label)
	return nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo, "unknown"
// where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
