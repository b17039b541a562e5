package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per core of the 2-vCPU
// reference machine. More clients than cores measures the scheduler.
const clients = 2

// rssEvery is how often the resident set is sampled in the window.
const rssEvery = 100 * time.Millisecond

// sliceDur is the slice of the per-second throughput report, which
// goes to standard error only: every figure is over the whole window.
const sliceDur = time.Second

// Latency series every workload records.
const (
	latRead = iota
	latWrite
	latRoute
	numLat
)

// recorder collects one client's raw samples. Each client owns one, so
// recording takes no lock. Only operations completing inside the window
// are sampled and counted towards rates.
type recorder struct {
	start, end  time.Time
	lat         [numLat][]float64 // latencies in µs, per series
	sliceOps    []int64           // completed ops per second of the window
	bytes       int64             // verified payload bytes in the window
	ops, failed int64
	errs        []string // first few failed operations
	violations  []string // first few wrong outputs
}

func newRecorder(start time.Time, dur time.Duration) *recorder {
	slices := int((dur + sliceDur - 1) / sliceDur)
	return &recorder{start: start, end: start.Add(dur), sliceOps: make([]int64, slices)}
}

// sample records latency d into series kind if the operation completed
// inside the window.
func (r *recorder) sample(kind int, d time.Duration) {
	if time.Now().Before(r.end) {
		r.lat[kind] = append(r.lat[kind], usec(d))
	}
}

// done counts one completed operation that delivered payload bytes.
func (r *recorder) done(bytes int) {
	r.ops++
	if now := time.Now(); now.Before(r.end) {
		r.sliceOps[int(now.Sub(r.start)/sliceDur)]++
		r.bytes += int64(bytes)
	}
}

// fail records an operation that returned an error.
func (r *recorder) fail(err error) {
	r.ops++
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// violate records an operation whose output was wrong.
func (r *recorder) violate(format string, args ...any) {
	r.ops++
	r.failed++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// workload is what differs between the workloads: how the overlay is
// loaded, what one client operation does, and what is checked at the
// end.
type workload interface {
	preload(c *cluster) error
	// do performs operation i for client cl, recording into rec.
	do(c *cluster, cl, i int, rec *recorder)
	// verify checks end-of-run state.
	verify(c *cluster) error
}

func newWorkload(s spec, seed int64) workload {
	if s.blobs > 0 {
		return newStream(s, seed)
	}
	return newKV(s, seed)
}

// memStats is the allocator's cumulative counters.
type memStats struct{ mallocs, bytes, gcs uint64 }

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.Mallocs, m.TotalAlloc, uint64(m.NumGC)}
}

// window is one measured stretch of closed-loop load.
type window struct {
	dur        time.Duration
	recs       []*recorder
	tel0, tel1 telemetry
	cpu        time.Duration
	steal      float64
	mem0, mem1 memStats
	goroutines int
	rss        []float64 // resident set every rssEvery of the window, MiB
	rssErr     error
}

// samples returns every latency of series kind in the window.
func (win *window) samples(kind int) []float64 {
	var out []float64
	for _, r := range win.recs {
		out = append(out, r.lat[kind]...)
	}
	return out
}

// rate is the per-second rate of pick over the whole window.
func (win *window) rate(pick func(r *recorder) int64) float64 {
	var sum int64
	for _, r := range win.recs {
		sum += pick(r)
	}
	return float64(sum) / win.dur.Seconds()
}

// windowOps is the number of operations completed inside the window.
func (r *recorder) windowOps() int64 {
	var n int64
	for _, x := range r.sliceOps {
		n += x
	}
	return n
}

// ops totals the window's operations.
func (win *window) ops() int64 {
	var n int64
	for _, r := range win.recs {
		n += r.ops
	}
	return n
}

// drive runs the closed loop for dur and returns the window's samples
// and the counters around it. next is the shared operation index.
func drive(c *cluster, w workload, next *atomic.Int64, dur time.Duration) *window {
	win := &window{dur: dur}
	win.tel0 = readTelemetry(c.started)
	win.mem0 = readMem()
	cpu0, ticks0 := cpuTime(), readCPUTicks()
	start := time.Now()
	for i := 0; i < clients; i++ {
		win.recs = append(win.recs, newRecorder(start, dur))
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			v, err := rssMiB()
			if err != nil {
				win.rssErr = err
				return
			}
			win.rss = append(win.rss, v)
		}
	}()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rec := win.recs[cl]
			for time.Now().Before(rec.end) {
				w.do(c, cl, int(next.Add(1)-1), rec)
			}
		}(cl)
	}
	wg.Wait()
	close(stop)
	<-sampled
	win.goroutines = runtime.NumGoroutine()
	win.cpu = cpuTime() - cpu0
	win.steal = stealShare(ticks0, readCPUTicks())
	win.mem1 = readMem()
	win.tel1 = readTelemetry(c.started)
	return win
}

// report prints the window's per-second throughput and sample counts to
// standard error, for reading a noisy run; no metric uses them.
func (win *window) report(extra string) {
	fmt.Fprintf(os.Stderr, "slices ops/s:")
	for i := range win.recs[0].sliceOps {
		var n int64
		for _, r := range win.recs {
			n += r.sliceOps[i]
		}
		fmt.Fprintf(os.Stderr, " %d", n)
	}
	fmt.Fprintf(os.Stderr, "\nsamples read=%d write=%d route=%d %s\n", len(win.samples(latRead)),
		len(win.samples(latWrite)), len(win.samples(latRoute)), extra)
}

// setup boots and preloads the overlay `setups` times, tearing down all
// but the last, so setup_s is a median rather than one sample. It
// returns the last overlay, every set-up's duration and every boot
// Join's latency.
func setup(cfg runConfig, s spec, w workload, lay *layers, setups int) (*cluster, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		c, err := bootCluster(s, dir, lay)
		if err != nil {
			return nil, nil, err
		}
		if err := w.preload(c); err != nil {
			c.close()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setups-1 {
			return c, times, nil
		}
		c.close()
		// Collect the torn-down overlay before the next boot, so the
		// next set-up's timing and the peak RSS see one overlay's heap.
		runtime.GC()
	}
}
