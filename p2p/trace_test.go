package p2p

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/memnet"
)

// traceCluster boots n nodes on one memnet fabric with distinct seeded
// IDs, applying mut to each config before Start (tracing knobs, codec,
// admission caps, transport wrappers).
func traceCluster(t *testing.T, nw *memnet.Network, dim, n int, seed int64, mut func(ord int, cfg *Config)) []*Node {
	t.Helper()
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[uint64]bool)
	nodes := make([]*Node, 0, n)
	for len(nodes) < n {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		cfg := memConfig(nw, fmt.Sprintf("m%d", len(nodes)), dim, space.FromLinear(v))
		if mut != nil {
			mut(len(nodes), &cfg)
		}
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := nd.Join(nodes[rng.Intn(len(nodes))].Addr()); err != nil {
				t.Fatalf("node %v join: %v", nd.ID(), err)
			}
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	stabilizeAll(nodes, 3)
	return nodes
}

// collectSpans merges every node's span buffer — the in-process
// equivalent of scraping each member's /debug/spans.
func collectSpans(nodes []*Node) []*telemetry.Span {
	var all []*telemetry.Span
	for _, nd := range nodes {
		all = append(all, nd.Spans().Snapshot()...)
	}
	return all
}

// findTree returns the reconstructed tree for one trace ID.
func findTree(t *testing.T, nodes []*Node, traceID string) *telemetry.SpanTree {
	t.Helper()
	for _, tree := range telemetry.BuildTrees(collectSpans(nodes)) {
		if tree.TraceID == traceID {
			return tree
		}
	}
	t.Fatalf("trace %s not found in any span buffer", traceID)
	return nil
}

func rootAnnotations(tree *telemetry.SpanTree) map[string]bool {
	out := make(map[string]bool)
	if tree.Root != nil {
		for _, a := range tree.Root.Span.Annotations {
			out[a] = true
		}
	}
	return out
}

// victimKey finds a key owned by the given node.
func victimKey(t *testing.T, nodes []*Node, victim *Node) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("k%d", i)
		if ownerOf(t, nodes, k) == victim {
			return k
		}
	}
	t.Fatal("no key owned by victim")
	return ""
}

// hookTransport wraps a Transport, counts dials per address, and after
// a fixed number of allowed dials to an address either runs a one-shot
// hook immediately before the next dial proceeds (arm) or fails every
// further dial (armBlock) — the deterministic levers for changing
// cluster state in the middle of one operation. Each address has its
// own gate, so several can be armed at once.
type hookTransport struct {
	inner Transport

	mu    sync.Mutex
	dials map[string]int
	gates map[string]*dialGate
}

type dialGate struct {
	allow   int
	hook    func()
	blocked bool
}

func (h *hookTransport) Listen(addr string) (net.Listener, error) { return h.inner.Listen(addr) }

func (h *hookTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	h.mu.Lock()
	if h.dials == nil {
		h.dials = make(map[string]int)
	}
	h.dials[addr]++
	run := func() {}
	fail := false
	if g := h.gates[addr]; g != nil {
		if g.allow > 0 {
			g.allow--
		} else if g.blocked {
			fail = true
		} else {
			run = g.hook
			delete(h.gates, addr)
		}
	}
	h.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("hook: %s blocked", addr)
	}
	run() // outside the lock: a hook may re-arm this transport
	return h.inner.Dial(addr, timeout)
}

func (h *hookTransport) dialsTo(addr string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials[addr]
}

// arm runs hook once, before the dial to addr that follows allow more
// allowed dials.
func (h *hookTransport) arm(addr string, allow int, hook func()) {
	h.setGate(addr, &dialGate{allow: allow, hook: hook})
}

// armBlock fails every dial to addr after allow more allowed dials.
func (h *hookTransport) armBlock(addr string, allow int) {
	h.setGate(addr, &dialGate{allow: allow, blocked: true})
}

func (h *hookTransport) setGate(addr string, g *dialGate) {
	h.mu.Lock()
	if h.gates == nil {
		h.gates = make(map[string]*dialGate)
	}
	h.gates[addr] = g
	h.mu.Unlock()
}

// saturate fills a 1-slot, 1-deep admission controller from outside the
// wire path. The returned function releases the slot and drains the
// parked queue occupant.
func saturate(t *testing.T, nd *Node) func() {
	t.Helper()
	release, busy := nd.adm.admit(0)
	if busy != nil {
		t.Fatalf("saturate: slot admit rejected: %+v", busy)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if r2, _ := nd.adm.admit(0); r2 != nil {
			r2()
		}
	}()
	waitFor(t, func() bool { return nd.adm.queued.Load() == 1 })
	return func() {
		release()
		<-done
	}
}

// TestTraceSampledLookupTree: with TraceSample=1 on a mixed-codec
// cluster, a cross-node Put and Get each reconstruct into one complete
// rooted tree whose attribution telescopes to the root duration.
func TestTraceSampledLookupTree(t *testing.T) {
	nw := memnet.New(404)
	nodes := traceCluster(t, nw, 6, 8, 404, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.TraceSample = 1
		cfg.SpanBuffer = 1 << 14
		if ord%2 == 0 {
			cfg.WireCodec = "json"
		} else {
			cfg.WireCodec = "binary"
		}
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	origin := nodes[3]

	if err := origin.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, r, err := origin.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if r.TraceID == "" {
		t.Fatal("TraceSample=1 Get returned no trace ID")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil || tree.Root.Span.Name != "get" {
		t.Fatalf("tree root = %+v, want client get span", tree.Root)
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("sampled get tree incomplete: %v", viol)
	}
	attr := tree.Attribution()
	if attr.Total() != time.Duration(tree.Root.Span.Duration) {
		t.Errorf("attribution %v does not telescope to root duration %v",
			attr.Total(), time.Duration(tree.Root.Span.Duration))
	}
	if r.Hops > 0 && attr.Network == 0 {
		t.Error("multi-hop get attributed zero network time")
	}
	if origin.Telemetry().CounterValue("cycloid_traces_sampled_total") == 0 {
		t.Error("traces_sampled_total did not move")
	}
}

// TestTraceForcedOnShed: at TraceSample=0, a route that sheds around a
// saturated node forces sampling and still reconstructs into a single
// rooted tree annotated "shed" (and "late", since the first exchange
// went out unstamped).
func TestTraceForcedOnShed(t *testing.T) {
	nw := memnet.New(505)
	nodes := traceCluster(t, nw, 6, 8, 505, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.SpanBuffer = 1 << 14 // tracing on, sampling probability zero
		if ord == 0 {
			cfg.MaxInflight = 1
			cfg.QueueDepth = 1
		}
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	origin := nodes[3]
	if err := origin.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	unsaturate := saturate(t, victim)
	defer unsaturate()

	forcedBefore := origin.Telemetry().CounterValue("cycloid_traces_forced_total")
	v, r, err := origin.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get around saturated owner = %q, %v", v, err)
	}
	if r.TraceID == "" {
		t.Fatal("shed did not force a trace ID onto the route")
	}
	if got := origin.Telemetry().CounterValue("cycloid_traces_forced_total"); got <= forcedBefore {
		t.Error("traces_forced_total did not move")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil {
		t.Fatal("forced trace has no root")
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("forced shed tree incomplete: %v", viol)
	}
	ann := rootAnnotations(tree)
	if !ann["shed"] {
		t.Errorf("root annotations = %v, want shed", tree.Root.Span.Annotations)
	}
	if !ann["late"] {
		t.Errorf("root annotations = %v, want late (first exchange predated sampling)", tree.Root.Span.Annotations)
	}
}

// TestTraceForcedOnOwnerCrash: at TraceSample=0, an owner that dies
// just before the route's terminal step — the step that would have
// answered the read — forces sampling; the replica-fallback arc
// (timeout, route stopped short, surviving copy) reconstructs into a
// rooted tree annotated "timeout" and "replica-fallback".
func TestTraceForcedOnOwnerCrash(t *testing.T) {
	nw := memnet.New(606)
	var gate *hookTransport
	const readerOrd = 3
	nodes := traceCluster(t, nw, 6, 8, 606, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.SpanBuffer = 1 << 14
		if ord == readerOrd {
			gate = &hookTransport{inner: cfg.Transport}
			cfg.Transport = gate
		}
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	reader := nodes[readerOrd]
	if err := reader.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Count the route's dials to the owner, then let all but the last
	// through on the real Get: the terminal step, which carries the
	// read, hits a corpse.
	before := gate.dialsTo(victim.Addr())
	if _, err := reader.Lookup(key); err != nil {
		t.Fatal(err)
	}
	routeDials := gate.dialsTo(victim.Addr()) - before
	gate.armBlock(victim.Addr(), routeDials-1)

	v, r, err := reader.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get across owner crash = %q, %v", v, err)
	}
	if r.Timeouts == 0 {
		t.Fatal("owner crash charged no timeout; the gate did not fire on the terminal step")
	}
	if r.TraceID == "" {
		t.Fatal("owner crash did not force a trace ID onto the route")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil {
		t.Fatal("forced trace has no root")
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("replica-fallback tree incomplete: %v", viol)
	}
	ann := rootAnnotations(tree)
	if !ann["timeout"] || !ann["replica-fallback"] {
		t.Errorf("root annotations = %v, want timeout + replica-fallback", tree.Root.Span.Annotations)
	}
}

// TestTraceAcceptance is the tracing tier's end-to-end criterion: a
// sampled lookup across >=3 memnet nodes that experiences one shed, one
// retry and one replica fallback reconstructs into a single rooted span
// tree whose per-hop attribution sums to within 5% of the
// client-observed latency — on both codecs.
//
// The owner sheds the route's terminal step, so the route stops short
// at the owner's leaf neighbor (replica fallback). Routing never
// retries a shed hop, so the retry is on the read that follows: the
// fallback node sheds its fetch once and admits the retry.
func TestTraceAcceptance(t *testing.T) {
	for _, wc := range []string{"json", "binary"} {
		t.Run(wc, func(t *testing.T) {
			nw := memnet.New(707)
			var hook *hookTransport
			// fallbackOrd is the node this seed's route visits just
			// before the owner; checked below against the Get's route.
			const originOrd, fallbackOrd = 3, 4
			nodes := traceCluster(t, nw, 6, 8, 707, func(ord int, cfg *Config) {
				cfg.Replicas = 3
				cfg.TraceSample = 1
				cfg.SpanBuffer = 1 << 14
				cfg.WireCodec = wc
				if ord == 0 || ord == fallbackOrd {
					cfg.MaxInflight = 1
					cfg.QueueDepth = 1
				}
				if ord == originOrd {
					hook = &hookTransport{inner: cfg.Transport}
					cfg.Transport = hook
				}
			})
			victim := nodes[0]
			key := victimKey(t, nodes, victim)
			origin := nodes[originOrd]
			if err := origin.Put(key, []byte("v")); err != nil {
				t.Fatal(err)
			}

			// Count the route's dials to the owner and to the node
			// before it. Saturate the owner immediately before the last
			// of its dials — the terminal step — and the fallback node
			// immediately before the first dial after its route dials —
			// the fetch — releasing it again before the retry's dial.
			fallback := nodes[fallbackOrd]
			ownerBefore := hook.dialsTo(victim.Addr())
			fbBefore := hook.dialsTo(fallback.Addr())
			if _, err := origin.Lookup(key); err != nil {
				t.Fatal(err)
			}
			ownerDials := hook.dialsTo(victim.Addr()) - ownerBefore
			fbDials := hook.dialsTo(fallback.Addr()) - fbBefore
			var unsaturate, unsaturateFB func()
			hook.arm(victim.Addr(), ownerDials-1, func() { unsaturate = saturate(t, victim) })
			hook.arm(fallback.Addr(), fbDials, func() {
				unsaturateFB = saturate(t, fallback)
				hook.arm(fallback.Addr(), 0, func() {
					unsaturateFB()
					unsaturateFB = nil
				})
			})
			defer func() {
				if unsaturate != nil {
					unsaturate()
				}
				if unsaturateFB != nil {
					unsaturateFB()
				}
			}()

			retriesBefore := origin.Telemetry().CounterValue("cycloid_retries_total")
			t0 := time.Now()
			v, r, err := origin.GetContext(context.Background(), key)
			observed := time.Since(t0)
			if err != nil || string(v) != "v" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if unsaturate == nil {
				t.Fatal("saturation hook never fired; terminal step was not shed")
			}
			if r.Terminal != fallback.ID() {
				t.Fatalf("route stopped at %v, want the owner's predecessor %v: the seeded topology changed, update fallbackOrd",
					r.Terminal, fallback.ID())
			}
			if r.TraceID == "" {
				t.Fatal("no trace ID on the route")
			}
			retries := origin.Telemetry().CounterValue("cycloid_retries_total") - retriesBefore
			if retries == 0 {
				t.Fatal("fetch against the saturated fallback node was not retried")
			}

			tree := findTree(t, nodes, r.TraceID)
			if tree.Root == nil {
				t.Fatal("no root span")
			}
			if viol := tree.Check(false); len(viol) != 0 {
				t.Fatalf("acceptance tree incomplete: %v", viol)
			}
			ann := rootAnnotations(tree)
			if !ann["shed"] || !ann["replica-fallback"] {
				t.Fatalf("root annotations = %v, want shed + replica-fallback", tree.Root.Span.Annotations)
			}
			// The tree must span at least 3 distinct nodes.
			seen := map[string]bool{}
			var walk func(n *telemetry.SpanNode)
			walk = func(n *telemetry.SpanNode) {
				seen[n.Span.Node] = true
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(tree.Root)
			if len(seen) < 3 {
				t.Fatalf("trace touched %d nodes, want >= 3", len(seen))
			}
			// Per-hop attribution must sum to within 5% of the
			// client-observed latency.
			attr := tree.Attribution()
			diff := observed - attr.Total()
			if diff < 0 {
				diff = -diff
			}
			if diff > observed/20 {
				t.Fatalf("attribution %v (total %v) vs observed %v: off by %v (> 5%%)",
					attr, attr.Total(), observed, diff)
			}
		})
	}
}

// TestTraceUnsampledAllocs pins the unsampled hot path at zero
// allocations: at TraceSample=0 a full begin/call/end cycle must not
// allocate, keeping traced builds inside the node's lookup alloc budget.
func TestTraceUnsampledAllocs(t *testing.T) {
	nw := memnet.New(808)
	cfg := memConfig(nw, "alloc", 6, ids.CycloidID{K: 3, A: 21})
	cfg.SpanBuffer = 1024
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	allocs := testing.AllocsPerRun(2000, func() {
		ot := nd.beginOp("lookup", "k")
		req := request{Op: "step"}
		sid, t0 := ot.startCall(&req)
		ot.endCall(sid, t0, "step", "peer:1", nil)
		if nd.endOp(ot, nil) != "" {
			t.Fatal("unsampled op returned a trace ID")
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled trace cycle allocates %.1f/op, want 0", allocs)
	}
	// With span recording disabled entirely, beginOp must return nil and
	// every hook must no-op through it.
	cfg2 := memConfig(nw, "alloc2", 6, ids.CycloidID{K: 4, A: 21})
	nd2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	if ot := nd2.beginOp("lookup", "k"); ot != nil {
		t.Fatal("beginOp without a span buffer returned a live scope")
	}
}
