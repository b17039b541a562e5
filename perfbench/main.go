// Command perfbench is the repository's benchmark: it boots a fresh
// live Cycloid overlay for one named workload, drives it closed-loop
// with two clients, checks every output, and prints the workload's
// metrics by name with their units. See README.md.
//
//	bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// installs wrapping transports and stores, records spans around every
// call into a layer, and prints the per-layer metrics instead. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// watchdog bounds one run, which must end within 180 s.
const watchdog = 170 * time.Second

func main() {
	var cfg runConfig
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-zipf or stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for data and span files")
	flag.IntVar(&repeat, "repeat", 0, "run this many seeds in child processes and print each metric's spread against its bound")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--repeat N]")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatRuns(cfg, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	out, fp, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("env %s\n", fpLine)
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	for _, v := range out.violations {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // shrunken workloads, for the package's tests
	outDir   string
}

// outcome is one run's result line: correct, attempted, failed, metrics.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs, violations []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// warmup is the unmeasured load before the window: pooled connections
// get dialed and caches fill before anything is timed.
func warmup(cfg runConfig) time.Duration {
	if cfg.smoke {
		return 100 * time.Millisecond
	}
	return time.Second
}

// runOnce performs one run: set-up, warm-up, the measured window, the
// end-of-run checks, and the metrics. A traced run measures two fresh
// overlays one after the other, each for half the window: the first
// without the wrapping transports and stores, the second with them and
// with spans recorded.
func runOnce(cfg runConfig) (*outcome, fingerprint, error) {
	fp := newFingerprint(cfg.workload, cfg.seed, cfg.trace)
	s, err := workloadSpec(cfg.workload, cfg.smoke)
	if err != nil {
		return nil, fp, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fp, err
	}
	w := newWorkload(s, cfg.seed)
	out := &outcome{Metrics: make(map[string]metric)}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, err := measure(cfg, s, w, nil, s.setups, dur, out)
		if err != nil {
			return nil, fp, err
		}
		defer p.c.close()
		fp.StealShare = p.win.steal
		err = endToEnd(p.setupTimes, p.win, out.Metrics)
		if err != nil {
			return nil, fp, err
		}
	} else {
		u, err := measure(cfg, s, w, nil, 1, dur/2, out)
		if err != nil {
			return nil, fp, err
		}
		u.c.close()
		runtime.GC()
		lay := newLayers()
		p, err := measure(cfg, s, w, lay, 1, dur/2, out)
		if err != nil {
			return nil, fp, err
		}
		defer p.c.close()
		fp.StealShare = p.win.steal
		if err := perLayer(cfg, s, p.c, lay, u.win, p.win, out.Metrics); err != nil {
			return nil, fp, err
		}
	}
	out.Correct = len(out.violations) == 0
	return out, fp, nil
}

// phase is one overlay's measured window.
type phase struct {
	c          *cluster
	win        *window
	setupTimes []float64
}

// measure sets the overlay up `setups` times, warms the last one up,
// measures one window of dur on it (recording spans when lay is not
// nil) and runs the end-of-run checks, counting operations and
// violations into out. The caller closes the returned overlay.
func measure(cfg runConfig, s spec, w workload, lay *layers, setups int, dur time.Duration, out *outcome) (*phase, error) {
	c, times, err := setup(cfg, s, w, lay, setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var next atomic.Int64
	out.add(drive(c, w, &next, warmup(cfg)))
	lay.enable()
	win := drive(c, w, &next, dur)
	lay.disable()
	out.add(win)
	if err := w.verify(c); err != nil {
		out.violations = append(out.violations, err.Error())
	}
	if n := delta(nil, readTelemetry(c.started), telIntegrity); n > 0 {
		out.violations = append(out.violations, fmt.Sprintf("%v blob chunks failed their integrity check", n))
	}
	return &phase{c: c, win: win, setupTimes: times}, nil
}

// add counts a window's operations into the outcome.
func (o *outcome) add(win *window) {
	for _, r := range win.recs {
		o.Attempted += r.ops
		o.Failed += r.failed
		o.errs = append(o.errs, r.errs...)
		o.violations = append(o.violations, r.violations...)
	}
}
