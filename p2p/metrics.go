package p2p

import (
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p/pool"
	"cycloid/p2p/store"
)

// routePhases is the label set for per-phase hop counters — the paper's
// three routing phases. Greedy leaf-set hops report "traverse" (the
// leaf-set finish is the traverse phase) and are additionally counted
// by lookup_greedy_fallbacks_total.
var routePhases = []string{"ascending", "descending", "traverse"}

// wireOps is the label set for per-op request counters, matching the
// dispatch table in server.go.
var wireOps = []string{"ping", "state", "step", "store", "replicate", "fetch", "handoff", "reclaim", "update"}

// Help strings for the per-codec wire latency families.
const (
	codecEncHelp = "Per-message wire encode time in nanoseconds, by codec."
	codecDecHelp = "Per-message wire decode time in nanoseconds, by codec."
)

// nodeMetrics bundles one node's instruments. Every field is registered
// at Start, so recording is a single atomic operation with no map
// lookups on shared registry state.
type nodeMetrics struct {
	reg *telemetry.Registry

	// lookup path (p2p/lookup.go)
	lookups          *telemetry.Counter
	lookupHops       *telemetry.Histogram
	phaseHops        map[string]*telemetry.Counter
	phaseOther       *telemetry.Counter
	timeouts         *telemetry.Counter
	failures         *telemetry.Counter
	demotions        *telemetry.Counter
	skips            *telemetry.Counter
	greedyFallbacks  *telemetry.Counter
	replicaFallbacks *telemetry.Counter
	replicaProbes    *telemetry.Counter
	putRedirects     *telemetry.Counter
	redirectDepth    *telemetry.Histogram

	// wire layer (p2p/server.go, p2p/wire.go)
	requests      map[string]*telemetry.Counter
	requestOther  *telemetry.Counter
	dialLatency   *telemetry.Histogram
	dialFailures  *telemetry.Counter
	acceptBackoff *telemetry.Counter
	exchanges     *telemetry.Counter

	// admission control (p2p/admission.go) and the client-side retry
	// discipline (p2p/retry.go). The first four obey the conservation
	// law offered == admitted + shed + queue_timeout, which the overload
	// chaos tier asserts from counter deltas.
	admOffered       *telemetry.Counter
	admAdmitted      *telemetry.Counter
	admShed          *telemetry.Counter
	admQueueTimeout  *telemetry.Counter
	admInflightGauge *telemetry.Gauge
	admQueueGauge    *telemetry.Gauge
	busyReplies      *telemetry.Counter
	softDemotions    *telemetry.Counter
	retries          *telemetry.Counter
	retryExhausted   *telemetry.Counter
	retryTokens      *telemetry.Gauge

	// wire codecs (p2p/codec): per-message encode/decode latencies by
	// codec, and v2→v1 downgrades decided by negotiation.
	codecEncodeJSON *telemetry.Histogram
	codecEncodeBin  *telemetry.Histogram
	codecDecodeJSON *telemetry.Histogram
	codecDecodeBin  *telemetry.Histogram
	codecFallbacks  *telemetry.Counter

	// connection pool (p2p/pool, pooled transport mode)
	poolDials     *telemetry.Counter
	poolReuses    *telemetry.Counter
	poolEvictions *telemetry.Counter
	poolTeardowns *telemetry.Counter
	poolSaturated *telemetry.Counter

	// replication (p2p/replicate.go)
	fanout      *telemetry.Histogram
	fanoutSkips *telemetry.Counter
	lwwRejects  *telemetry.Counter
	promotions  *telemetry.Counter
	antiEntropy *telemetry.Counter
	replicaGC   *telemetry.Counter

	// durable store (p2p/store, DataDir mode); the instruments are
	// registered and exported even on memory-backed nodes, staying at
	// zero, so one overlay mixing backends scrapes uniformly.
	walAppends      *telemetry.Counter
	walAppendBytes  *telemetry.Counter
	walFsyncs       *telemetry.Counter
	walFsyncBatch   *telemetry.Histogram
	walFsyncLatency *telemetry.Histogram
	walReplayed     *telemetry.Counter
	walReplayTime   *telemetry.Histogram
	walSnapshots    *telemetry.Counter
	walCompactions  *telemetry.Counter
	walSegBytes     *telemetry.Gauge

	// stabilization (p2p/stabilize.go)
	stabRounds      *telemetry.Counter
	stabDuration    *telemetry.Histogram
	pruned          *telemetry.Counter
	suspectsCleared *telemetry.Counter

	// distributed tracing (p2p/trace.go)
	tracesSampled *telemetry.Counter
	tracesForced  *telemetry.Counter
	spansRecorded *telemetry.Counter

	// state gauges
	suspectsGauge *telemetry.Gauge
	storeKeys     *telemetry.Gauge
	leafNodes     *telemetry.Gauge
	replicaSet    *telemetry.Gauge
}

func newNodeMetrics(reg *telemetry.Registry) *nodeMetrics {
	m := &nodeMetrics{
		reg: reg,

		lookups:    reg.Counter("lookups_total", "Routes driven by this node (lookups, reads, writes, join and repair traffic)."),
		lookupHops: reg.Histogram("lookup_hop_count", "Per-route path length in hops.", telemetry.HopBuckets),
		phaseHops:  make(map[string]*telemetry.Counter, len(routePhases)),
		timeouts: reg.Counter("lookup_timeouts_total",
			"Unreachable nodes contacted during routes and reads — the live equivalent of the paper's timeout metric."),
		failures:  reg.Counter("lookup_failures_total", "Routes that did not converge or were cancelled."),
		demotions: reg.Counter("lookup_demotions_total", "Suspected candidates demoted behind clean ones by candidate ordering."),
		skips:     reg.Counter("lookup_skips_total", "Known-dead candidates skipped outright by candidate ordering."),
		greedyFallbacks: reg.Counter("lookup_greedy_fallbacks_total",
			"Routes that fell back to pure greedy leaf-set forwarding after phased routing stalled."),
		replicaFallbacks: reg.Counter("get_replica_fallbacks_total",
			"Reads served past an unreachable or overloaded node: the route's last step to it failed or was shed, or the terminal's fetch failed."),
		replicaProbes: reg.Counter("get_replica_probes_total",
			"Leaf-neighborhood replica probes issued by reads whose terminal held no copy."),
		putRedirects:  reg.Counter("put_redirects_total", "Store redirects followed after routing raced a membership change."),
		redirectDepth: reg.Histogram("put_redirect_depth", "Redirects followed per successful store.", telemetry.RedirectBuckets),

		requests:     make(map[string]*telemetry.Counter, len(wireOps)),
		dialLatency:  reg.Histogram("dial_latency_us", "Per-contact dial+exchange latency in microseconds.", telemetry.LatencyBucketsUS),
		dialFailures: reg.Counter("dial_failures_total", "Contacts that failed to dial or complete the exchange."),
		acceptBackoff: reg.Counter("accept_backoff_total",
			"Transient listener Accept errors absorbed by exponential backoff."),
		exchanges: reg.Counter("wire_exchanges_total",
			"Completed wire exchanges (whatever the reply said); the retry budget earns tokens from these."),

		admOffered:  reg.Counter("admission_offered_total", "Requests presented to the admission controller (pings bypass it)."),
		admAdmitted: reg.Counter("admission_admitted_total", "Requests admitted for dispatch, immediately or after a queue wait."),
		admShed: reg.Counter("admission_shed_total",
			"Requests shed with a busy reply because the admission queue was full."),
		admQueueTimeout: reg.Counter("admission_queue_timeout_total",
			"Requests dropped from the admission queue when their wait outlived the caller's deadline."),
		admInflightGauge: reg.Gauge("admission_inflight", "Requests currently dispatched under the in-flight cap."),
		admQueueGauge:    reg.Gauge("admission_queue_depth", "Requests currently waiting in the admission queue."),
		busyReplies: reg.Counter("busy_replies_total",
			"Busy (load-shed) replies received from peers; counted as overload, never as dial failures."),
		softDemotions: reg.Counter("lookup_soft_demotions_total",
			"Overloaded peers entered into the soft-demotion window (routed around, not suspected)."),
		retries: reg.Counter("retries_total",
			"Budgeted retries issued after busy replies, post-backoff."),
		retryExhausted: reg.Counter("retry_budget_exhausted_total",
			"Busy replies not retried because the token bucket was empty."),
		retryTokens: reg.Gauge("retry_budget_tokens", "Tokens currently available to the busy-retry budget."),

		codecEncodeJSON: reg.Histogram("codec_encode_ns", codecEncHelp, telemetry.CodecLatencyBucketsNS, telemetry.L("codec", "json")),
		codecEncodeBin:  reg.Histogram("codec_encode_ns", codecEncHelp, telemetry.CodecLatencyBucketsNS, telemetry.L("codec", "binary")),
		codecDecodeJSON: reg.Histogram("codec_decode_ns", codecDecHelp, telemetry.CodecLatencyBucketsNS, telemetry.L("codec", "json")),
		codecDecodeBin:  reg.Histogram("codec_decode_ns", codecDecHelp, telemetry.CodecLatencyBucketsNS, telemetry.L("codec", "binary")),
		codecFallbacks: reg.Counter("wire_codec_fallbacks_total",
			"Peers downgraded from the v2 binary codec to v1 JSON after negotiation."),

		poolDials:  reg.Counter("pool_dials_total", "Pooled connections opened (pooled transport mode)."),
		poolReuses: reg.Counter("pool_reuses_total", "Wire calls that rode an existing pooled connection."),
		poolEvictions: reg.Counter("pool_evictions_total",
			"Idle pooled connections evicted after the idle timeout."),
		poolTeardowns: reg.Counter("pool_teardowns_total",
			"Pooled connections torn down on failure, failing their pending calls."),
		poolSaturated: reg.Counter("pool_inflight_rejected_total",
			"Calls rejected locally because every pooled connection to the peer was at its in-flight cap."),

		fanout: reg.Histogram("replicate_fanout_size", "Replica targets per owner-side write fan-out.", telemetry.FanoutBuckets),
		fanoutSkips: reg.Counter("replicate_fanout_skips_total",
			"Replica pushes skipped because the target was inside its soft-demotion window (anti-entropy repairs them)."),
		lwwRejects: reg.Counter("lww_rejects_total", "Replicated copies rejected because a local copy was at least as new."),
		promotions: reg.Counter("replica_promotions_total",
			"Replicas promoted to owned copies after the previous owner disappeared."),
		antiEntropy: reg.Counter("antientropy_pushes_total", "Non-owned copies pushed home by the anti-entropy pass."),
		replicaGC:   reg.Counter("replica_gc_total", "Out-of-scope copies garbage-collected after owner acknowledgement."),

		walAppends:     reg.Counter("wal_appends_total", "Records appended to the durable store's write-ahead log."),
		walAppendBytes: reg.Counter("wal_append_bytes_total", "Bytes appended to the write-ahead log."),
		walFsyncs:      reg.Counter("wal_fsyncs_total", "Physical WAL flushes issued by the group-commit sync path."),
		walFsyncBatch: reg.Histogram("wal_fsync_batch_records", "Records made durable per group-committed flush.",
			telemetry.WALBatchBuckets),
		walFsyncLatency: reg.Histogram("wal_fsync_latency_us", "Per-flush fsync latency in microseconds.",
			telemetry.LatencyBucketsUS),
		walReplayed: reg.Counter("wal_replayed_records_total", "Snapshot and WAL records replayed at startup recovery."),
		walReplayTime: reg.Histogram("wal_replay_duration_us", "Startup recovery (snapshot + WAL replay) duration in microseconds.",
			telemetry.LatencyBucketsUS),
		walSnapshots:   reg.Counter("wal_snapshots_total", "Store snapshots written by compaction."),
		walCompactions: reg.Counter("wal_compactions_total", "WAL segment compactions completed."),
		walSegBytes:    reg.Gauge("wal_active_segment_bytes", "Size of the active WAL segment."),

		tracesSampled: reg.Counter("traces_sampled_total",
			"Client operations sampled probabilistically into distributed traces (Config.TraceSample)."),
		tracesForced: reg.Counter("traces_forced_total",
			"Client operations force-sampled by an anomaly (shed, timeout, retry exhaustion, greedy fallback)."),
		spansRecorded: reg.Counter("spans_recorded_total",
			"Distributed-tracing spans published to the node's span buffer."),

		stabRounds:      reg.Counter("stabilize_rounds_total", "Stabilization rounds completed."),
		stabDuration:    reg.Histogram("stabilize_duration_us", "Stabilization round duration in microseconds.", telemetry.LatencyBucketsUS),
		pruned:          reg.Counter("table_entries_pruned_total", "Dead cubical/cyclic entries dropped by the routing-table refresh."),
		suspectsCleared: reg.Counter("suspects_cleared_total", "Suspected addresses cleared by a successful re-probe."),

		suspectsGauge: reg.Gauge("suspects", "Addresses currently under failure suspicion."),
		storeKeys:     reg.Gauge("store_keys", "Keys currently held in the local store (owned plus replicated)."),
		leafNodes:     reg.Gauge("leafset_nodes", "Distinct live nodes across the four leaf-set slots."),
		replicaSet:    reg.Gauge("replica_set_size", "Replica targets currently reachable from the leaf sets."),
	}
	const phaseHelp = "Route hops by routing phase (the paper's Figure 7 breakdown)."
	for _, p := range routePhases {
		m.phaseHops[p] = reg.Counter("lookup_hops_total", phaseHelp, telemetry.L("phase", p))
	}
	m.phaseOther = reg.Counter("lookup_hops_total", phaseHelp, telemetry.L("phase", "other"))
	const reqHelp = "Wire requests served, by op code."
	for _, op := range wireOps {
		m.requests[op] = reg.Counter("requests_total", reqHelp, telemetry.L("op", op))
	}
	m.requestOther = reg.Counter("requests_total", reqHelp, telemetry.L("op", "other"))
	return m
}

// hopPhase counts one route hop under its phase label.
func (m *nodeMetrics) hopPhase(phase string) {
	if c, ok := m.phaseHops[phase]; ok {
		c.Inc()
		return
	}
	m.phaseOther.Inc()
}

// poolEvent counts one pool lifecycle event (pooled transport mode).
func (m *nodeMetrics) poolEvent(e pool.Event) {
	switch e {
	case pool.EventDial:
		m.poolDials.Inc()
	case pool.EventReuse:
		m.poolReuses.Inc()
	case pool.EventEviction:
		m.poolEvictions.Inc()
	case pool.EventTeardown:
		m.poolTeardowns.Inc()
	case pool.EventCodecFallback:
		m.codecFallbacks.Inc()
	case pool.EventSaturated:
		m.poolSaturated.Inc()
	}
}

// request counts one served wire request under its op label.
func (m *nodeMetrics) request(op string) {
	if c, ok := m.requests[op]; ok {
		c.Inc()
		return
	}
	m.requestOther.Inc()
}

// Telemetry returns the registry holding the node's metrics — the same
// registry passed in Config.Telemetry, or the node's private one.
// Expose it over HTTP with telemetry.Handler (see cmd/cycloidd).
func (n *Node) Telemetry() *telemetry.Registry { return n.tel.reg }

// TraceRing returns the node's lookup trace buffer, nil when tracing is
// disabled (Config.TraceBuffer < 0).
func (n *Node) TraceRing() *telemetry.TraceRing { return n.traces }

// Traces returns the retained phase-annotated lookup traces, oldest
// first.
func (n *Node) Traces() []telemetry.Trace { return n.traces.Snapshot() }

// Spans returns the node's distributed-tracing span buffer, nil when
// span recording is disabled. Collectors merge Snapshot()s from every
// node and reconstruct causal trees with telemetry.BuildTrees.
func (n *Node) Spans() *telemetry.SpanBuffer { return n.spans }

// updateStoreGauge refreshes the store_keys gauge; callers hold n.mu
// (or own the node exclusively, as during Start).
func (n *Node) updateStoreGaugeLocked() {
	n.tel.storeKeys.Set(int64(n.store.Len()))
}

// storeHooks adapts the durable store's event callbacks onto the node's
// WAL instruments.
func (m *nodeMetrics) storeHooks() store.Hooks {
	return store.Hooks{
		Append: func(bytes int) {
			m.walAppends.Inc()
			m.walAppendBytes.Add(uint64(bytes))
		},
		Fsync: func(records int64, d time.Duration) {
			m.walFsyncs.Inc()
			m.walFsyncBatch.Observe(records)
			m.walFsyncLatency.Observe(d.Microseconds())
		},
		Replay: func(records int, d time.Duration) {
			m.walReplayed.Add(uint64(records))
			m.walReplayTime.Observe(d.Microseconds())
		},
		Snapshot: func(int) { m.walSnapshots.Inc() },
		Compact:  func(int) { m.walCompactions.Inc() },
		SegmentBytes: func(bytes int64) {
			m.walSegBytes.Set(bytes)
		},
	}
}

// updateLeafGauges refreshes the leaf-set and replica-set size gauges
// from the current routing state.
func (n *Node) updateLeafGauges() {
	n.mu.RLock()
	leafs := []*entry{n.rs.insideL, n.rs.insideR, n.rs.outsideL, n.rs.outsideR}
	distinct := make(map[string]bool)
	for _, e := range leafs {
		if e != nil && e.ID != n.id {
			distinct[e.Addr] = true
		}
	}
	n.mu.RUnlock()
	n.tel.leafNodes.Set(int64(len(distinct)))
	rs := 0
	if n.cfg.Replicas > 1 {
		rs = n.cfg.Replicas - 1
		if len(distinct) < rs {
			rs = len(distinct)
		}
	}
	n.tel.replicaSet.Set(int64(rs))
}
