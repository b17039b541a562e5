package p2p

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/memnet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// gateTransport wraps a Transport and, once armed, fails dials to one
// address after a fixed number of further allowed dials — a node that
// dies mid-operation, deterministically.
type gateTransport struct {
	inner Transport

	mu      sync.Mutex
	blocked string
	allow   int
}

func (g *gateTransport) Listen(addr string) (net.Listener, error) { return g.inner.Listen(addr) }

func (g *gateTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	g.mu.Lock()
	if g.blocked == addr {
		if g.allow <= 0 {
			g.mu.Unlock()
			return nil, fmt.Errorf("gate: %s blocked", addr)
		}
		g.allow--
	}
	g.mu.Unlock()
	return g.inner.Dial(addr, timeout)
}

// arm starts failing dials to addr after the next allow dials.
func (g *gateTransport) arm(addr string, allow int) {
	g.mu.Lock()
	g.blocked, g.allow = addr, allow
	g.mu.Unlock()
}

// TestGetTimeoutSingleCharge pins the Route.Timeouts accounting fix: an
// owner that dies between route and fetch must cost the read exactly one
// timeout. Before the fix the read charged the fetch failure, then the
// re-route demoted the one-strike corpse to pass 1, dialed it again, and
// charged a second timeout for the same death.
func TestGetTimeoutSingleCharge(t *testing.T) {
	nw := memnet.New(77)
	dim := 5
	space := ids.NewSpace(dim)

	ownerCfg := memConfig(nw, "owner", dim, ids.CycloidID{K: 2, A: 9})
	ownerCfg.Replicas = 2
	owner, err := Start(ownerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	readerGate := &gateTransport{inner: nw.Host("reader")}
	readerCfg := Config{
		Dim:         dim,
		ID:          &ids.CycloidID{K: 1, A: 20},
		DialTimeout: 200 * time.Millisecond,
		Transport:   readerGate,
		Replicas:    2,
	}
	reader, err := Start(readerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.Join(owner.Addr()); err != nil {
		t.Fatal(err)
	}
	stabilizeAll([]*Node{owner, reader}, 3)

	// A key owned by the owner node, replicated onto the reader.
	key := ""
	for i := 0; i < 1024; i++ {
		k := fmt.Sprintf("k%d", i)
		if space.Closer(owner.keyPoint(k), owner.id, reader.id) {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by the owner node")
	}
	if err := owner.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.localFetch(key); !ok {
		t.Fatal("reader holds no replica after Put")
	}
	if got := reader.strikesOf(owner.Addr()); got != 0 {
		t.Fatalf("reader already has %d strikes on the owner", got)
	}

	// Kill the owner for the route's single step — the step that would
	// have ended the route and answered the read — and everything after.
	readerGate.arm(owner.Addr(), 0)

	before := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	v, r, err := reader.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "v" {
		t.Fatalf("Get = %q, want %q", v, "v")
	}
	if r.Timeouts != 1 {
		t.Fatalf("owner death charged %d timeouts, want exactly 1", r.Timeouts)
	}
	after := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	if delta := after - before; delta != uint64(r.Timeouts) {
		t.Fatalf("lookup_timeouts_total moved by %d, Route.Timeouts = %d; accounting diverged", delta, r.Timeouts)
	}
}

// TestGetStopShortFetchFailure covers the fetch a read still sends when
// its route stops short: the owner sheds the terminal step, so the
// route stops at the node before it (one replica fallback), and
// that neighbor dies before the fetch. The failed fetch must cost
// exactly one timeout and a second fallback, and the re-route must not
// dial the corpse again.
func TestGetStopShortFetchFailure(t *testing.T) {
	nw := memnet.New(707)
	var hook *hookTransport
	// The seeded topology of TestTraceAcceptance, read from node 1,
	// whose route to node 0's keys visits node 4 just before the owner.
	// (From node 3, node 4 is also the only leaf-set link toward the
	// owner, so once it dies the re-route cannot reach any replica until
	// stabilization repairs the leaf sets; ROADMAP lists that gap.)
	const originOrd, neighborOrd = 1, 4
	nodes := traceCluster(t, nw, 6, 8, 707, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		if ord == 0 {
			cfg.MaxInflight = 1
			cfg.QueueDepth = 1
		}
		if ord == originOrd {
			hook = &hookTransport{inner: cfg.Transport}
			cfg.Transport = hook
		}
	})
	owner, origin, neighbor := nodes[0], nodes[originOrd], nodes[neighborOrd]
	key := victimKey(t, nodes, owner)
	if err := origin.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	ownerBefore := hook.dialsTo(owner.Addr())
	nbBefore := hook.dialsTo(neighbor.Addr())
	if _, err := origin.Lookup(key); err != nil {
		t.Fatal(err)
	}
	ownerDials := hook.dialsTo(owner.Addr()) - ownerBefore
	nbDials := hook.dialsTo(neighbor.Addr()) - nbBefore
	if ownerDials == 0 || nbDials == 0 {
		t.Fatalf("route dialed the owner %d and the neighbor %d times: the seeded topology changed, update neighborOrd", ownerDials, nbDials)
	}
	var unsaturate func()
	hook.arm(owner.Addr(), ownerDials-1, func() { unsaturate = saturate(t, owner) })
	hook.arm(neighbor.Addr(), nbDials, func() { neighbor.Close() })
	defer func() {
		if unsaturate != nil {
			unsaturate()
		}
	}()

	tel := origin.Telemetry()
	timeouts0 := tel.CounterValue("cycloid_lookup_timeouts_total")
	fallbacks0 := tel.CounterValue("cycloid_get_replica_fallbacks_total")
	nbBefore = hook.dialsTo(neighbor.Addr())
	v, r, err := origin.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if unsaturate == nil {
		t.Fatal("saturation hook never fired; the terminal step was not shed")
	}
	if r.Terminal == neighbor.ID() || r.Terminal == owner.ID() {
		t.Fatalf("read served by %v, want a surviving replica other than the dead neighbor and the shedding owner", r.Terminal)
	}
	if r.Timeouts != 1 {
		t.Fatalf("the neighbor's death charged %d timeouts, want exactly 1", r.Timeouts)
	}
	if delta := tel.CounterValue("cycloid_lookup_timeouts_total") - timeouts0; delta != 1 {
		t.Fatalf("lookup_timeouts_total moved by %d, want 1", delta)
	}
	if delta := tel.CounterValue("cycloid_get_replica_fallbacks_total") - fallbacks0; delta != 2 {
		t.Fatalf("get_replica_fallbacks_total moved by %d, want 2 (route stopped at the shedding owner, failed fetch)", delta)
	}
	if got := hook.dialsTo(neighbor.Addr()) - nbBefore; got != nbDials+1 {
		t.Fatalf("origin dialed the neighbor %d times, want %d route steps + 1 fetch and no re-route dial", got, nbDials)
	}
}

// TestMetricsGolden pins the full Prometheus exposition of a fresh node
// — every metric family, its HELP/TYPE lines, label sets and bucket
// layouts — against testdata/metrics.golden. Run with -update to accept
// intentional changes.
func TestMetricsGolden(t *testing.T) {
	nw := memnet.New(1)
	cfg := memConfig(nw, "golden", 6, ids.CycloidID{K: 3, A: 21})
	cfg.Replicas = 2
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	var buf bytes.Buffer
	if err := nd.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(buf.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s (re-run with -update if intentional):\n--- got ---\n%s", golden, buf.String())
	}
}

// TestMetricsScrapeUnderChurn hammers one node's scrape endpoints while
// the overlay underneath it serves writes, reads, a crash and
// stabilization — the race detector proves scraping never tears
// instrument state.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	nw := memnet.New(13)
	nodes := memReplCluster(t, nw, 6, 8, 13, 2)
	target := nodes[0]

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := target.Telemetry().WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			if err := telemetry.Lint(buf.Bytes()); err != nil {
				t.Errorf("mid-churn exposition fails lint: %v", err)
				return
			}
			buf.Reset()
			if err := target.Telemetry().WriteJSON(&buf); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
			_ = target.Traces()
		}
	}()

	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("churn%d", i)
		if err := target.Put(key, []byte{byte(i)}); err != nil {
			t.Logf("put %s: %v", key, err)
		}
		if _, _, err := nodes[1].Get(key); err != nil {
			t.Logf("get %s: %v", key, err)
		}
		if i == 10 {
			nodes[len(nodes)-1].Close() // ungraceful crash mid-run
		}
		if i%7 == 0 {
			target.Stabilize()
		}
	}
	close(done)
	wg.Wait()
}

// TestLookupTraceRecorded drives a read and requires the reader's trace
// ring to hold a phase-annotated trace whose hop and timeout accounting
// matches the returned route.
func TestLookupTraceRecorded(t *testing.T) {
	nw := memnet.New(5)
	nodes := memCluster(t, nw, 6, 8, 5)
	stabilizeAll(nodes, 3)
	reader := nodes[0]

	if err := nodes[1].Put("traced", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, r, err := reader.Get("traced")
	if err != nil {
		t.Fatal(err)
	}
	traces := reader.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var tr *telemetry.Trace
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].Kind == "lookup" {
			tr = &traces[i]
			break
		}
	}
	if tr == nil {
		t.Fatalf("no lookup trace among %d retained traces", len(traces))
	}
	if len(tr.Hops) != r.Hops {
		t.Errorf("trace has %d hops, route reports %d", len(tr.Hops), r.Hops)
	}
	if tr.Timeouts != r.Timeouts {
		t.Errorf("trace reports %d timeouts, route %d", tr.Timeouts, r.Timeouts)
	}
	for i, h := range tr.Hops {
		if want, ok := r.Phases[h.Phase]; !ok || want == 0 {
			t.Errorf("hop %d phase %q not in route's phase map %v", i, h.Phase, r.Phases)
		}
		if h.From == "" || h.To == "" {
			t.Errorf("hop %d missing endpoints: %+v", i, h)
		}
	}
	// Tracing disabled: no ring, Traces is nil-safe.
	offCfg := memConfig(nw, "traceless", 6, ids.CycloidID{K: 0, A: 1})
	offCfg.TraceBuffer = -1
	off, err := Start(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if _, err := off.Lookup("anything"); err != nil {
		t.Fatal(err)
	}
	if got := off.Traces(); got != nil {
		t.Fatalf("TraceBuffer<0 still recorded %d traces", len(got))
	}
}

// TestRouteMetricsMatchRoutes drives a batch of reads against a cluster
// with a crashed member and requires the reader's timeout counter to
// move by exactly the sum of the returned routes' Timeouts fields — the
// invariant the chaos harness asserts continuously.
func TestRouteMetricsMatchRoutes(t *testing.T) {
	nw := memnet.New(29)
	nodes := memReplCluster(t, nw, 6, 10, 29, 3)
	for i := 0; i < 12; i++ {
		if err := nodes[i%len(nodes)].Put(fmt.Sprintf("mm%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	nodes[len(nodes)-1].Close() // corpse to generate timeouts

	reader := nodes[0]
	before := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	sum, failed := 0, 0
	for i := 0; i < 12; i++ {
		// A read may legitimately fail before stabilization repairs the
		// tables; even then the returned route's timeout accounting must
		// match the counter movement.
		_, r, err := reader.Get(fmt.Sprintf("mm%d", i))
		if err != nil {
			failed++
		}
		sum += r.Timeouts
	}
	if failed == 12 {
		t.Fatal("every read failed; cluster never converged")
	}
	after := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	if delta := after - before; delta != uint64(sum) {
		t.Fatalf("lookup_timeouts_total moved by %d, routes reported %d", delta, sum)
	}
}
