package p2p

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/memnet"
)

// fleetRequests sums one op's served-request counter over the fleet.
func fleetRequests(nodes []*Node, op string) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.Telemetry().CounterValue(`cycloid_requests_total{op="` + op + `"}`)
	}
	return sum
}

// TestFoldedReadExchangeCount pins what a faultless Get costs on the
// wire: one exchange per hop and nothing more, because the owner
// answers the read in the step that ends the route. Every member reads
// every key. Across the fleet the served step count must equal the
// summed Route.Hops, the served fetch count (the loadgen "fetches"
// column, Figure 10's query load) must equal the number of Gets whose
// terminal was remote, and the readers' dials — one per exchange in
// dial-per-request mode — must equal the summed hops too.
func TestFoldedReadExchangeCount(t *testing.T) {
	nw := memnet.New(91)
	const dim, n = 6, 12
	var hooks []*hookTransport
	nodes := traceCluster(t, nw, dim, n, 91, func(_ int, cfg *Config) {
		h := &hookTransport{inner: cfg.Transport}
		hooks = append(hooks, h)
		cfg.Transport = h
	})
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("fold-%d", i)
		if err := nodes[i%n].Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	dials := func() int {
		total := 0
		for _, h := range hooks {
			h.mu.Lock()
			for _, c := range h.dials {
				total += c
			}
			h.mu.Unlock()
		}
		return total
	}

	steps0, fetches0, dials0 := fleetRequests(nodes, "step"), fleetRequests(nodes, "fetch"), dials()
	hops, remote := 0, 0
	for _, nd := range nodes {
		for _, k := range keys {
			v, r, err := nd.Get(k)
			if err != nil || string(v) != k {
				t.Fatalf("Get(%q) from %v = %q, %v", k, nd.ID(), v, err)
			}
			if want := ownerOf(t, nodes, k).ID(); r.Terminal != want || r.Timeouts != 0 {
				t.Fatalf("Get(%q) from %v ended at %v with %d timeouts, want %v and none",
					k, nd.ID(), r.Terminal, r.Timeouts, want)
			}
			hops += r.Hops
			if r.Terminal != nd.ID() {
				remote++
			}
		}
	}
	if remote == 0 || hops == 0 {
		t.Fatalf("degenerate workload: %d remote terminals, %d hops", remote, hops)
	}
	if got := fleetRequests(nodes, "step") - steps0; got != uint64(hops) {
		t.Errorf("fleet served %d steps, want Σ Route.Hops = %d", got, hops)
	}
	if got := fleetRequests(nodes, "fetch") - fetches0; got != uint64(remote) {
		t.Errorf("fleet served %d fetches, want one per remote terminal = %d", got, remote)
	}
	if got := dials() - dials0; got != hops {
		t.Errorf("readers made %d exchanges, want one per hop = %d", got, hops)
	}
}

// TestFoldedReadsAcrossCodecs runs folded reads over a pooled overlay
// whose members speak v1 JSON, v2 binary and auto-negotiated codecs,
// so every client/server codec pairing both carries a keyed step and
// answers one: stored keys come back (including an empty value), a
// missing key reports ErrNotFound, and the fleet serves exactly one
// fetch per read with a remote terminal.
func TestFoldedReadsAcrossCodecs(t *testing.T) {
	nw := memnet.New(53)
	const dim, n = 5, 9
	codecs := []string{"json", "binary", "auto"}
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(53))
	taken := make(map[uint64]bool)
	nodes := make([]*Node, 0, n)
	for len(nodes) < n {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		cfg := pooledMemConfig(nw, fmt.Sprintf("f%d", len(nodes)), dim, space.FromLinear(v))
		cfg.WireCodec = codecs[len(nodes)%len(codecs)]
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := nd.Join(nodes[len(nodes)-1].Addr()); err != nil {
				t.Fatalf("%s node join: %v", cfg.WireCodec, err)
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

	vals := map[string][]byte{"empty": nil}
	for i := 0; i < 18; i++ {
		vals[fmt.Sprintf("codec-%d", i)] = []byte(fmt.Sprintf("value-%d", i))
	}
	for k, v := range vals {
		if err := nodes[len(k)%n].Put(k, v); err != nil {
			t.Fatal(err)
		}
	}

	fetches0 := fleetRequests(nodes, "fetch")
	remote := 0
	for _, nd := range nodes {
		for k, want := range vals {
			v, r, err := nd.Get(k)
			if err != nil || string(v) != string(want) {
				t.Fatalf("Get(%q) via %s node = %q, %v; want %q", k, nd.cfg.WireCodec, v, err, want)
			}
			if r.Terminal != nd.ID() {
				remote++
			}
		}
		_, r, err := nd.Get("never-stored")
		if err != ErrNotFound {
			t.Fatalf("Get of a missing key via %s node: err = %v, want ErrNotFound", nd.cfg.WireCodec, err)
		}
		if r.Terminal != nd.ID() {
			remote++
		}
	}
	if got := fleetRequests(nodes, "fetch") - fetches0; got != uint64(remote) {
		t.Errorf("fleet served %d fetches, want one per remote terminal = %d", got, remote)
	}
}

// TestFoldedGetAllocs pins the allocation cost of a folded remote Get
// on a pooled binary link — client and server side together, since
// both run in this process. The same Get with a separate fetch after
// the route, and the fallback bookkeeping allocated up front, cost 23.
func TestFoldedGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	nw := memnet.New(808)
	const dim = 6
	var nodes []*Node
	for i, id := range []ids.CycloidID{{K: 3, A: 21}, {K: 1, A: 40}} {
		cfg := pooledMemConfig(nw, fmt.Sprintf("a%d", i), dim, id)
		cfg.WireCodec = "binary"
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes, 2)
	reader := nodes[0]
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); ownerOf(t, nodes, k) == nodes[1] {
			key = k
		}
	}
	if err := reader.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		v, r, err := reader.Get(key)
		if err != nil || string(v) != "value" || r.Hops != 1 {
			t.Fatalf("Get = %q, %+v, %v", v, r, err)
		}
	})
	if allocs > 17 {
		t.Errorf("folded remote Get allocates %.1f/op, want <= 17", allocs)
	}
}

// preFoldTransport makes one member look like a build that predates the
// folded read to the node dialing through it: on the v1 JSON codec it
// drops the key from every step request sent to that member, so the
// member decides the step without reading its store.
type preFoldTransport struct {
	inner Transport

	mu     sync.Mutex
	target string
}

func (p *preFoldTransport) Listen(addr string) (net.Listener, error) { return p.inner.Listen(addr) }

func (p *preFoldTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := p.inner.Dial(addr, timeout)
	p.mu.Lock()
	strip := addr == p.target
	p.mu.Unlock()
	if err != nil || !strip {
		return c, err
	}
	return stripKeyConn{c}, nil
}

type stripKeyConn struct{ net.Conn }

// Write rewrites one newline-terminated JSON request (the v1 client
// writes each request in a single Write) without its key when it is a
// step.
func (c stripKeyConn) Write(p []byte) (int, error) {
	var m map[string]json.RawMessage
	if json.Unmarshal(p, &m) != nil || string(m["op"]) != `"step"` {
		return c.Conn.Write(p)
	}
	delete(m, "key")
	q, err := json.Marshal(m)
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(append(q, '\n')); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestFoldedReadFromPreFoldOwner: an owner that ignores the step's key
// answers Done without a value, which the reader cannot tell from a
// miss. Without replication there is no replica to fall back on, so
// the reader must confirm the miss with a fetch, which the old build
// serves.
func TestFoldedReadFromPreFoldOwner(t *testing.T) {
	nw := memnet.New(64)
	var pre *preFoldTransport
	nodes := traceCluster(t, nw, 5, 6, 64, func(ord int, cfg *Config) {
		if ord == 0 {
			cfg.WireCodec = "json"
			pre = &preFoldTransport{inner: cfg.Transport}
			cfg.Transport = pre
		}
	})
	reader := nodes[0]
	owner := nodes[1]
	key := victimKey(t, nodes, owner)
	if err := owner.Put(key, []byte("old-build")); err != nil {
		t.Fatal(err)
	}
	pre.mu.Lock()
	pre.target = owner.Addr()
	pre.mu.Unlock()

	fetches0 := owner.Telemetry().CounterValue(`cycloid_requests_total{op="fetch"}`)
	v, r, err := reader.Get(key)
	if err != nil || string(v) != "old-build" {
		t.Fatalf("Get through a pre-fold owner = %q, %v; want %q", v, err, "old-build")
	}
	if r.Terminal != owner.ID() {
		t.Fatalf("route ended at %v, want the owner %v", r.Terminal, owner.ID())
	}
	if got := owner.Telemetry().CounterValue(`cycloid_requests_total{op="fetch"}`) - fetches0; got != 1 {
		t.Errorf("pre-fold owner served %d fetches, want the 1 that confirmed the folded miss", got)
	}
}

// TestGetResumesThroughRecoveredSuspect: a route whose only candidate
// toward the key carries suspectDrop strikes stops short without
// dialing it, so a read that finds no copy anywhere else resumes the
// route through that candidate once. A member that has recovered since
// its strikes (they clear only at stabilization) serves the read, and
// the exchange clears its strikes.
func TestGetResumesThroughRecoveredSuspect(t *testing.T) {
	nw := memnet.New(31)
	const dim = 5
	owner, err := Start(memConfig(nw, "owner", dim, ids.CycloidID{K: 2, A: 9}))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	reader, err := Start(memConfig(nw, "reader", dim, ids.CycloidID{K: 1, A: 20}))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.Join(owner.Addr()); err != nil {
		t.Fatal(err)
	}
	stabilizeAll([]*Node{owner, reader}, 3)
	key := victimKey(t, []*Node{owner, reader}, owner)
	if err := reader.Put(key, []byte("back")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < suspectDrop; i++ {
		reader.suspect(owner.Addr())
	}

	v, r, err := reader.Get(key)
	if err != nil || string(v) != "back" {
		t.Fatalf("Get past a recovered suspect = %q, %v; want %q", v, err, "back")
	}
	if r.Terminal != owner.ID() || r.Timeouts != 0 {
		t.Fatalf("read served by %v with %d timeouts, want the owner %v and none", r.Terminal, r.Timeouts, owner.ID())
	}
	if s := reader.strikesOf(owner.Addr()); s != 0 {
		t.Fatalf("owner keeps %d strikes after serving the read, want 0", s)
	}
}
