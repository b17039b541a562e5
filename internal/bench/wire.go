// Wire-transport benchmarks: the same iterative lookup driven through
// the two transport modes the live stack supports — a fresh dial per
// wire exchange (the seed behavior) versus pooled, multiplexed
// persistent connections. Both run real p2p nodes over loopback TCP so
// the pair measures what pooling actually buys: connection setup,
// socket churn and per-request goroutine spin-up on the dial path.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p"
)

// tcpCluster boots n live nodes on loopback TCP with deterministic IDs,
// fully stabilized, in the given transport mode and wire codec. Each
// optional mut hook can adjust a member's config before start, keyed by
// its boot ordinal — how the shedding benchmark caps one node.
func tcpCluster(b *testing.B, dim, n int, seed int64, pooled bool, wireCodec string, mut ...func(ord int, cfg *p2p.Config)) []*p2p.Node {
	b.Helper()
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[uint64]bool)
	nodes := make([]*p2p.Node, 0, n)
	for len(nodes) < n {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		id := space.FromLinear(v)
		cfg := p2p.Config{
			Dim:             dim,
			ID:              &id,
			DialTimeout:     2 * time.Second,
			PooledTransport: pooled,
			WireCodec:       wireCodec,
			// The wire benchmarks measure routing and transport; the
			// introspection trace ring would add per-lookup allocation
			// noise that masks the codec under test.
			TraceBuffer: -1,
		}
		for _, m := range mut {
			m(len(nodes), &cfg)
		}
		nd, err := p2p.Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := nd.Join(nodes[rng.Intn(len(nodes))].Addr()); err != nil {
				b.Fatalf("join: %v", err)
			}
		}
		nodes = append(nodes, nd)
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for i := 0; i < 3; i++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}
	return nodes
}

// benchWireLookup drives iterative lookups from every node. Keys are
// pregenerated so the loop measures routing and transport, not
// fmt.Sprintf. Pooled modes drive lookups concurrently (RunParallel):
// a multiplexed transport exists to carry many exchanges per
// connection, so its headline number is throughput under load, where
// frame batching and buffer reuse actually pay; dial-per-request runs
// sequentially, matching its recorded history.
func benchWireLookup(b *testing.B, pooled bool, wireCodec string, mut ...func(ord int, cfg *p2p.Config)) {
	benchWire(b, pooled, wireCodec, nil, mut...)
}

// benchWire is benchWireLookup's harness. With a non-nil value every
// key is stored with it first and the measured operation is Get
// instead of Lookup: the same route, the value riding back on the
// terminal step.
func benchWire(b *testing.B, pooled bool, wireCodec string, value []byte, mut ...func(ord int, cfg *p2p.Config)) {
	nodes := tcpCluster(b, 6, 8, Seed, pooled, wireCodec, mut...)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("wire-%d", i)
	}
	op := func(nd *p2p.Node, key string) error {
		_, err := nd.Lookup(key)
		return err
	}
	if value != nil {
		for i, k := range keys {
			if err := nodes[i%len(nodes)].Put(k, value); err != nil {
				b.Fatal(err)
			}
		}
		op = func(nd *p2p.Node, key string) error {
			_, _, err := nd.Get(key)
			return err
		}
	}
	// Warm-up: route one operation from each origin so pooled mode
	// starts with established (and codec-negotiated) connections,
	// matching its steady state.
	for i, nd := range nodes {
		if err := op(nd, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if !pooled {
		for i := 0; i < b.N; i++ {
			if err := op(nodes[i%len(nodes)], keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	// RunParallel defaults to GOMAXPROCS workers — on a small machine
	// that is too few in-flight lookups for a multiplexed transport to
	// coalesce anything. The workload is I/O-bound (every hop waits on a
	// wire exchange), so oversubscribing keeps the pipeline full. All
	// lookups originate at one gateway node: concurrent exchanges then
	// share that node's few pooled connections, which is the design
	// point of a multiplexed transport (and of its frame batching) —
	// spread across every origin, each link sees one request at a time
	// and a pool measures no better than serial dialing with the dial
	// elided.
	b.SetParallelism(32)
	origin := nodes[0]
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if err := op(origin, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchPooledLookup measures the lookup hot path over pooled,
// multiplexed wire connections speaking the v2 binary codec: every
// step rides an established per-peer conn, correlated by request ID,
// encoded into pooled buffers and batched per connection.
func benchPooledLookup(b *testing.B) { benchWireLookup(b, true, "binary") }

// benchPooledGet is the PooledLookup workload reading 128-byte values
// (the kv-zipf value size) instead of resolving the route only. The
// owner answers the read in the route's terminal step, so the
// PooledGet/PooledLookup pair in BENCH_cycloid.json records what a read
// adds to a lookup: the value bytes and the store access, no extra
// exchange.
func benchPooledGet(b *testing.B) { benchWire(b, true, "binary", make([]byte, 128)) }

// benchPooledLookupJSON is the identical pooled workload forced onto
// the v1 JSON codec. The PooledLookup/PooledLookupJSON pair in
// BENCH_cycloid.json is the recorded win of the binary wire protocol
// with everything else held fixed.
func benchPooledLookupJSON(b *testing.B) { benchWireLookup(b, true, "json") }

// benchLookupTraced is the PooledLookup workload with distributed
// tracing sampling every operation: every step records call and server
// spans, and every request carries the 25-byte binary trace-context
// extension. The LookupTraced/PooledLookup pair in BENCH_cycloid.json
// is the recorded worst-case cost of tracing — real deployments sample
// ~1%, so the amortized cost is this delta times the sample rate.
func benchLookupTraced(b *testing.B) {
	benchWireLookup(b, true, "binary", func(ord int, cfg *p2p.Config) {
		cfg.TraceSample = 1
		cfg.SpanBuffer = 1 << 14
	})
}

// benchLookupTracedUnsampled keeps the tracing machinery armed (span
// buffers allocated, every operation passes through the opTrace pool
// and sampling dice) but with a sample probability so small nothing is
// ever sampled. The LookupTracedUnsampled/PooledLookup pair is the
// recorded overhead a traced-but-unsampled operation pays — the <1%,
// zero-allocation budget the tracing plane is held to.
func benchLookupTracedUnsampled(b *testing.B) {
	benchWireLookup(b, true, "binary", func(ord int, cfg *p2p.Config) {
		cfg.TraceSample = 1e-12
		cfg.SpanBuffer = 1 << 14
	})
}

// benchLookupDialPerRequest is the same workload over the seed
// transport: every wire exchange dials a fresh TCP connection. The
// pooled/dial-per-request ratio in BENCH_cycloid.json is the recorded
// win of the connection pool.
func benchLookupDialPerRequest(b *testing.B) { benchWireLookup(b, false, "auto") }

// benchLookupUnderShedding is the PooledLookup workload measured while
// one node in the cluster is actively shedding: the victim runs a tiny
// admission cap plus simulated service time, and background writers
// hammer Puts at keys it owns for the whole measurement window. (Puts
// are what saturate it — the pooled mux answers lookup-path ops inline
// on each connection's read loop, so they arrive nearly serialized;
// store ops get a per-request goroutine each and pile onto the
// admission queue for real.) The LookupUnderShedding/PooledLookup pair
// in BENCH_cycloid.json records what an overloaded neighbor costs the
// lookup path: busy replies, budgeted retries with jittered backoff,
// and the soft demotion that steers pass-0 routing around the victim.
// Lookups that still fail after the retry budget are counted and
// reported as err/op rather than failing the run — sheds are the
// scenario, not a harness bug. shed/op confirms the victim actually
// shed during the window.
func benchLookupUnderShedding(b *testing.B) {
	const victimOrd = 1 // boot ordinal; 0 is the origin gateway
	nodes := tcpCluster(b, 6, 8, Seed, true, "binary", func(ord int, cfg *p2p.Config) {
		if ord == victimOrd {
			cfg.MaxInflight = 2
			cfg.QueueDepth = 2
			// Without simulated service time the loopback handler
			// drains a cap of 2 in microseconds and nothing ever sheds
			// (same physics as the chaos overload tier).
			cfg.ServiceDelay = 200 * time.Microsecond
		}
	})
	victim := nodes[victimOrd]
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("wire-%d", i)
	}
	// Hot keys owned by the victim, for the background writers.
	hot := make([]string, 0, 4)
	for i := 0; len(hot) < cap(hot); i++ {
		if i == 1<<16 {
			b.Fatalf("no %d victim-owned keys in %d candidates", cap(hot), i)
		}
		k := fmt.Sprintf("hot-%d", i)
		r, err := victim.Lookup(k)
		if err != nil {
			b.Fatal(err)
		}
		if r.Addr == victim.Addr() {
			hot = append(hot, k)
		}
	}
	for i, nd := range nodes {
		if _, err := nd.Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			src := nodes[2+w%(len(nodes)-2)] // neither origin nor victim
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are the point: shed Puts exercise the exact
				// busy path the foreground lookups contend with.
				_ = src.Put(hot[i%len(hot)], []byte("v"))
			}
		}(w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Mirror benchWireLookup's pooled shape: oversubscribed workers, one
	// gateway origin (see that function's comment for why).
	b.SetParallelism(32)
	origin := nodes[0]
	shedBefore := victim.Telemetry().CounterValues()["cycloid_admission_shed_total"]
	var ctr, errs atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if _, err := origin.Lookup(keys[i%len(keys)]); err != nil {
				errs.Add(1)
			}
		}
	})
	b.StopTimer()
	close(stop)
	writers.Wait()
	shed := victim.Telemetry().CounterValues()["cycloid_admission_shed_total"] - shedBefore
	b.ReportMetric(float64(errs.Load())/float64(b.N), "err/op")
	b.ReportMetric(float64(shed)/float64(b.N), "shed/op")
}
