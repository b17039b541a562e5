package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cycloid/p2p"
)

// mib is one MiB in bytes.
const mib = 1 << 20

// setMetric records one metric.
func setMetric(m map[string]metric, name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit}
}

// setQuantile records the q-quantile of samples, failing when the
// samples do not support it.
func setQuantile(m map[string]metric, name, unit string, samples []float64, q float64) error {
	v, err := quantile(samples, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	setMetric(m, name, unit, v)
	return nil
}

func durations(ds []time.Duration, scale time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(scale)
	}
	return out
}

// endToEnd computes the metrics a user of the overlay sees, from an
// untraced window. Every workload reports every one; README.md gives
// what each means on each workload.
func endToEnd(setupTimes []float64, win *window, m map[string]metric) error {
	setMetric(m, "setup_s", "s", median(setupTimes))
	setMetric(m, "throughput_ops_s", "1/s", win.rate((*recorder).windowOps))
	setMetric(m, "goodput_mib_s", "MiB/s", win.rate(func(r *recorder) int64 { return r.bytes })/mib)
	for _, q := range []struct {
		name string
		kind int
		q    float64
	}{
		{"read_p50_us", latRead, 0.5}, {"read_p90_us", latRead, 0.9},
		{"write_p50_us", latWrite, 0.5},
		{"route_p50_us", latRoute, 0.5}, {"route_p90_us", latRoute, 0.9},
	} {
		if err := setQuantile(m, q.name, "us", win.samples(q.kind), q.q); err != nil {
			return err
		}
	}
	setMetric(m, "hops_mean", "hops", ratio(delta(win.tel0, win.tel1, telHops+"_sum"), delta(win.tel0, win.tel1, telHops+"_count")))
	if win.rssErr != nil || len(win.rss) == 0 {
		return fmt.Errorf("rss_mib: no samples (%v)", win.rssErr)
	}
	setMetric(m, "rss_mib", "MiB", median(win.rss))
	win.report(fmt.Sprintf("setup_s=%.3f", setupTimes))
	return nil
}

// perLayer computes the per-layer metrics of a traced run. win is the
// traced window and untraced the window measured before it on a fresh
// overlay without the wrapping transports and stores. Layers the workload bypasses are measured by a short probe
// after the window (see probe.go), and the codec, routing-decision and
// manifest costs by microbenchmarks on the overlay's own shapes.
func perLayer(cfg runConfig, s spec, c *cluster, lay *layers, untraced, win *window, m map[string]metric) error {
	t0, t1 := win.tel0, win.tel1
	ops := float64(win.ops())
	winCount, winNanos := lay.totals()
	lay.syncMu.Lock()
	syncs := append([]float64(nil), lay.syncs...)
	lay.syncMu.Unlock()
	counters := struct{ dials, reads, bytesOut, flushes, walBytes int64 }{
		lay.dials.Load(), lay.reads.Load(), lay.bytesOut.Load(), lay.flushes.Load(), lay.walBytes.Load(),
	}

	// Routing.
	setMetric(m, "route.steps_per_lookup", "hops", ratio(delta(t0, t1, telHops+"_sum"), delta(t0, t1, telHops+"_count")))
	setMetric(m, "route.timeouts_per_op", "count", ratio(delta(t0, t1, telTimeouts), ops))
	var whole []*p2p.Node
	for _, nd := range c.nodes {
		if _, ok := t0[nd]; ok {
			whole = append(whole, nd)
		}
	}
	setMetric(m, "route.load_cv", "ratio", cv(perNode(t0, t1, whole, telRequests("step"))))

	// Transport and pool.
	setMetric(m, "net.writes_per_op", "count", ratio(float64(winCount[spanWrite]), ops))
	setMetric(m, "net.reads_per_op", "count", ratio(float64(counters.reads), ops))
	setMetric(m, "net.bytes_out_per_op", "B", ratio(float64(counters.bytesOut), ops))
	setMetric(m, "net.write_us_per_op", "us", ratio(float64(winNanos[spanWrite])/1e3, ops))
	setMetric(m, "net.dials", "count", float64(counters.dials))
	reuses, dials := delta(t0, t1, poolReuses), delta(t0, t1, poolDials)
	setMetric(m, "pool.reuse_ratio", "ratio", ratio(reuses, reuses+dials))

	// Admission and retries.
	setMetric(m, "admission.admitted_per_op", "count", ratio(delta(t0, t1, telAdmitted), ops))
	setMetric(m, "admission.shed", "count", delta(t0, t1, telShed))
	setMetric(m, "retry.retries_per_op", "count", ratio(delta(t0, t1, telRetries), ops))

	// Replication and store, per client write (a Put, or a whole blob
	// upload), background replication the window caused included.
	writes := float64(len(win.samples(latWrite)))
	setMetric(m, "replicate.msgs_per_put", "count", ratio(delta(t0, t1, telRequests("replicate")), writes))
	setMetric(m, "replicate.fanout_mean", "count", ratio(delta(t0, t1, telFanout+"_sum"), delta(t0, t1, telFanout+"_count")))
	setMetric(m, "replicate.lww_rejects", "count", delta(t0, t1, telLWW))
	setMetric(m, "store.puts_per_put", "count", ratio(float64(winCount[spanStorePut]), writes))
	setMetric(m, "store.put_ns", "ns", ratio(float64(winNanos[spanStorePut]), float64(winCount[spanStorePut])))
	setMetric(m, "store.syncs_per_put", "count", ratio(float64(counters.flushes), writes))
	if err := setQuantile(m, "store.sync_us_p50", "us", syncs, 0.5); err != nil {
		return err
	}
	if err := setQuantile(m, "store.sync_us_p99", "us", syncs, 0.99); err != nil {
		return err
	}
	setMetric(m, "store.sync_busy_share", "ratio", ratio(float64(winNanos[spanStoreSync]), float64(win.dur)*float64(len(c.nodes))))
	setMetric(m, "store.wal_bytes_per_put", "B", ratio(float64(counters.walBytes), writes))

	// Runtime, from the untraced overlay so neither the wrappers nor the
	// span recording are charged to the system.
	uops := float64(untraced.ops())
	setMetric(m, "runtime.allocs_per_op", "count", ratio(float64(untraced.mem1.mallocs-untraced.mem0.mallocs), uops))
	setMetric(m, "runtime.alloc_bytes_per_op", "B", ratio(float64(untraced.mem1.bytes-untraced.mem0.bytes), uops))
	setMetric(m, "runtime.gc_cycles_per_kop", "count", ratio(float64(untraced.mem1.gcs-untraced.mem0.gcs)*1000, uops))
	setMetric(m, "runtime.cpu_us_per_op", "us", ratio(usec(untraced.cpu), uops))
	setMetric(m, "runtime.goroutines_per_node", "count", ratio(float64(untraced.goroutines), float64(len(c.nodes))))
	setMetric(m, "env.steal_share", "ratio", untraced.steal)

	thrU, thrT := untraced.rate((*recorder).windowOps), win.rate((*recorder).windowOps)
	setMetric(m, "trace.overhead_share", "ratio", 1-ratio(thrT, thrU))

	// Blob and membership: from the window where the workload exercises
	// them, from the probe where it does not.
	p, err := runProbe(s, c, lay, win)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if err := setQuantile(m, "blob.open_us_p50", "us", p.opens, 0.5); err != nil {
		return err
	}
	setMetric(m, "blob.read_wait_us_per_chunk", "us", ratio(p.readNanos/1e3, p.reads))
	setMetric(m, "blob.chunk_fetches_per_session", "count", ratio(p.fetches, float64(len(p.opens))))
	setMetric(m, "blob.integrity_failures", "count", p.integrity)
	if err := setQuantile(m, "membership.join_us_p50", "us", durations(p.joins, time.Microsecond), 0.5); err != nil {
		return err
	}
	if err := setQuantile(m, "membership.leave_us_p50", "us", durations(p.leaves, time.Microsecond), 0.5); err != nil {
		return err
	}
	setMetric(m, "membership.stabilize_round_ms", "ms", median(durations(p.rounds, time.Millisecond)))
	setMetric(m, "membership.msgs_per_event", "count", ratio(p.msgs, p.events))

	// Microbenchmarks on the workload's own shapes, on a collected heap.
	runtime.GC()
	if err := micro(s, c, m); err != nil {
		return err
	}

	spans := lay.recorded()
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "per-layer self time, traced window and probe (%d spans kept, %d dropped; %s):\n", len(spans), lay.dropped.Load(), path)
	fmt.Fprintf(os.Stderr, "  %-22s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us_mean")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(os.Stderr, "  %-22s %9d %12.2f %12.2f %12.2f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e3/float64(r.count))
	}
	fmt.Fprintf(os.Stderr, "  trace.overhead_share %.4f (traced %.0f ops/s, untraced %.0f ops/s)\n", m["trace.overhead_share"].Value, thrT, thrU)
	return nil
}
