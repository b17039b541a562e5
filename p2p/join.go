package p2p

import (
	"context"
	"fmt"
	"sort"

	"cycloid/internal/ids"
)

// Join enters an existing overlay through any live member, following
// Section 3.3.1: route a join message to the node Z numerically closest
// to this node's ID, derive the leaf sets from Z's neighborhood,
// initialize the routing table with the local-remote search, notify the
// inside leaf set (and, when this node becomes a primary, the adjacent
// cycles), and reclaim the keys this node is now responsible for.
func (n *Node) Join(bootstrap string) error {
	if n.isStopped() {
		return ErrStopped
	}
	// Locate Z through the bootstrap node.
	boot, err := n.stateOf(bootstrap)
	if err != nil {
		return fmt.Errorf("p2p: join: bootstrap: %w", err)
	}
	if toEntry(boot.Self).ID == n.id {
		return fmt.Errorf("p2p: join: ID collision with bootstrap node %v", n.id)
	}
	route, _, err := n.routeTraced(context.Background(), toEntry(boot.Self), n.id, "join", "", nil, nil)
	if err != nil {
		return fmt.Errorf("p2p: join: locating closest node: %w", err)
	}
	if route.Terminal == n.id {
		return fmt.Errorf("p2p: join: ID collision at %v", n.id)
	}
	zst, err := n.stateOf(route.Addr)
	if err != nil {
		return fmt.Errorf("p2p: join: fetching closest node state: %w", err)
	}

	if err := n.deriveLeafSets(zst); err != nil {
		return err
	}
	n.RefreshRoutingTable()
	n.announce("join", nil)
	n.reclaimKeys()
	n.updateLeafGauges()
	n.log.Info("joined overlay", "via", bootstrap, "closest", route.Terminal.String(),
		"hops", route.Hops, "timeouts", route.Timeouts)
	return nil
}

// stateOf fetches a peer's routing state.
func (n *Node) stateOf(addr string) (*WireState, error) {
	return n.stateOfCtx(context.Background(), addr)
}

func (n *Node) stateOfCtx(ctx context.Context, addr string) (*WireState, error) {
	resp, err := n.callCtx(ctx, addr, request{Op: "state"})
	if err != nil {
		return nil, err
	}
	if resp.State == nil {
		return nil, fmt.Errorf("p2p: %s returned no state", addr)
	}
	return resp.State, nil
}

// stateOfOrLocalCtx answers a state query locally when the entry is this
// node itself, with remote queries capped by the context deadline.
func (n *Node) stateOfOrLocalCtx(ctx context.Context, e entry) (*WireState, error) {
	if e.ID == n.id {
		return n.wireState(), nil
	}
	return n.stateOfCtx(ctx, e.Addr)
}

// deriveLeafSets builds this node's leaf sets from the closest node Z's
// neighborhood, the two cases of Section 3.3.1.
func (n *Node) deriveLeafSets(z *WireState) error {
	zself := toEntry(z.Self)
	n.mu.Lock()
	defer n.mu.Unlock()
	if zself.ID.A == n.id.A {
		// Case 1 — same local cycle. Z is the numerically closest member,
		// so this node slots in adjacent to Z; the side follows from the
		// cyclic-index ring.
		zSucc := entryOr(z.InsideR, zself)
		zPred := entryOr(z.InsideL, zself)
		if zSucc.ID == zself.ID {
			// Z was alone on the cycle: both neighbors are Z.
			n.rs.insideL, n.rs.insideR = clone(zself), clone(zself)
		} else if n.space.ClockwiseCyclic(zself.ID.K, n.id.K) < n.space.ClockwiseCyclic(zself.ID.K, zSucc.ID.K) {
			// This node lands between Z and Z's successor.
			n.rs.insideL, n.rs.insideR = clone(zself), clone(zSucc)
		} else {
			n.rs.insideL, n.rs.insideR = clone(zPred), clone(zself)
		}
		n.rs.outsideL = clone(entryOr(z.OutsideL, zself))
		n.rs.outsideR = clone(entryOr(z.OutsideR, zself))
		if n.rs.outsideL.ID == zself.ID || n.rs.outsideL.ID.A == n.id.A {
			n.rs.outsideL = n.selfEntry()
		}
		if n.rs.outsideR.ID == zself.ID || n.rs.outsideR.ID.A == n.id.A {
			n.rs.outsideR = n.selfEntry()
		}
		return nil
	}
	// Case 2 — this node opens a new cycle: it is its own inside leaf set
	// and the primary of Z's cycle anchors one outside side.
	n.rs.insideL, n.rs.insideR = n.selfEntry(), n.selfEntry()
	primary, err := n.primaryOfCycleLocked(zself, z)
	if err != nil {
		return err
	}
	zOutL := entryOr(z.OutsideL, zself)
	zOutR := entryOr(z.OutsideR, zself)
	if n.space.ClockwiseCycle(n.id.A, zself.ID.A) <= n.space.ClockwiseCycle(zself.ID.A, n.id.A) {
		// Z's cycle succeeds this node's cycle.
		n.rs.outsideR = clone(primary)
		n.rs.outsideL = clone(zOutL)
	} else {
		n.rs.outsideL = clone(primary)
		n.rs.outsideR = clone(zOutR)
	}
	// With only one other cycle in the overlay, both sides anchor on it.
	if n.rs.outsideL.ID.A == n.id.A || n.rs.outsideL.ID == n.id {
		n.rs.outsideL = clone(primary)
	}
	if n.rs.outsideR.ID.A == n.id.A || n.rs.outsideR.ID == n.id {
		n.rs.outsideR = clone(primary)
	}
	return nil
}

// primaryOfCycleLocked walks Z's local cycle through inside successors to
// find its primary (largest cyclic index), at most d hops.
func (n *Node) primaryOfCycleLocked(zself entry, z *WireState) (entry, error) {
	best := zself
	cur := entryOr(z.InsideR, zself)
	for hop := 0; hop < n.space.Dim() && cur.ID != zself.ID; hop++ {
		if cur.ID.K > best.ID.K {
			best = cur
		}
		st, err := n.stateOf(cur.Addr)
		if err != nil {
			break // best-effort: stabilization refines later
		}
		cur = entryOr(st.InsideR, cur)
	}
	return best, nil
}

// announce runs the notification fan-out: inside leaf set always; outside
// leaf set (with cycle propagation) when this node is the primary of its
// cycle. For leaves the departing state rides along so receivers can
// splice.
func (n *Node) announce(event string, departed *WireState) {
	self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	req := request{Op: "update", Event: event, Subject: &self, Departed: departed}

	n.mu.RLock()
	inside := []*entry{n.rs.insideL, n.rs.insideR}
	outside := []*entry{n.rs.outsideL, n.rs.outsideR}
	isPrimary := n.rs.insideR == nil || n.rs.insideR.ID == n.id || n.rs.insideR.ID.K < n.id.K
	n.mu.RUnlock()

	sent := map[ids.CycloidID]bool{n.id: true}
	for _, e := range inside {
		if e != nil && !sent[e.ID] {
			sent[e.ID] = true
			_, _ = n.call(e.Addr, req)
		}
	}
	if isPrimary {
		preq := req
		preq.Propagate = true
		preq.TTL = n.space.Dim()
		for _, e := range outside {
			if e != nil && !sent[e.ID] {
				sent[e.ID] = true
				_, _ = n.call(e.Addr, preq)
			}
		}
	}
}

// reclaimKeys pulls over the stored items this freshly joined node is now
// responsible for, from the neighbors that held them.
func (n *Node) reclaimKeys() {
	n.mu.RLock()
	targets := []*entry{n.rs.insideL, n.rs.insideR, n.rs.outsideL, n.rs.outsideR}
	n.mu.RUnlock()
	seen := map[ids.CycloidID]bool{n.id: true}
	for _, e := range targets {
		if e == nil || seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		resp, err := n.call(e.Addr, request{Op: "reclaim"})
		if err != nil {
			continue
		}
		items, err := decodeReclaim(resp.Value)
		if err != nil {
			continue
		}
		for k, w := range items {
			n.putLocal(k, item{Val: append([]byte(nil), w.V...), Ver: w.Ver, Src: w.Src})
		}
	}
	// Reclaimed keys are this node's responsibility now; on a durable
	// backend, persist them before the join settles — the previous
	// holders may garbage-collect their copies on the strength of this
	// node holding them. A failed sync only logs: the copies still exist
	// upstream until the owner acks them during anti-entropy.
	if err := n.store.Sync(); err != nil {
		n.log.Error("sync after key reclaim failed", "err", err)
	}
}

// Leave departs gracefully: notify the inside leaf set (and the adjacent
// cycles when this node is a primary), hand the stored keys to their new
// owners, and stop serving. Nodes holding this node as a cubical or
// cyclic neighbor are not notified — their stale entries cost timeouts
// until stabilization, exactly as in the paper.
func (n *Node) Leave() error {
	if n.isStopped() {
		return ErrStopped
	}
	st := n.wireState()
	n.mu.RLock()
	keys := n.store.Len()
	n.mu.RUnlock()
	n.log.Info("leaving overlay", "keys", keys)
	n.announce("leave", st)
	n.handoffKeys()
	return n.Close()
}

// handoffKeys transfers every stored item to its new owner. By the time
// this runs the departure notifications have spliced this node out of its
// neighbors' leaf sets, so a lookup started at a leaf neighbor resolves
// each key's new owner; if a stale entry still routes back here, the item
// falls back to the leaf neighbor closest to the key. Keys and batches
// are processed in sorted order so the sequence of network operations —
// and therefore any deterministic fault schedule a test transport
// replays against it — is reproducible; a failed delivery is retried
// against every remaining live leaf neighbor before the batch is given
// up, so a lossy link alone cannot destroy data.
func (n *Node) handoffKeys() {
	n.mu.Lock()
	items := make(map[string]item, n.store.Len())
	n.store.Range(func(k string, it item) bool {
		items[k] = it
		return true
	})
	// Drain the local store: the departing node's copies move to their
	// new owners. On a durable backend each delete is a tombstone, so a
	// later reboot of this data directory comes back empty-handed
	// instead of resurrecting keys that were handed off.
	for k := range items {
		n.store.Delete(k)
	}
	n.updateStoreGaugeLocked()
	cands := []*entry{n.rs.insideL, n.rs.insideR, n.rs.outsideL, n.rs.outsideR}
	n.mu.Unlock()

	var liveStart *entry
	for _, e := range cands {
		if e != nil && e.ID != n.id {
			if _, err := n.call(e.Addr, request{Op: "ping"}); err == nil {
				liveStart = e
				break
			}
		}
	}
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batches := make(map[string]map[string]WireItem) // addr -> items
	for _, k := range keys {
		kp := n.keyPoint(k)
		var dest *entry
		if liveStart != nil {
			if r, _, err := n.routeTraced(context.Background(), *liveStart, kp, "leave", "", nil, nil); err == nil && r.Terminal != n.id {
				dest = &entry{ID: r.Terminal, Addr: r.Addr}
			}
		}
		if dest == nil {
			// Fallback: the leaf neighbor closest to the key.
			for _, e := range cands {
				if e == nil || e.ID == n.id {
					continue
				}
				if dest == nil || n.space.Closer(kp, e.ID, dest.ID) {
					dest = e
				}
			}
		}
		if dest == nil {
			continue // last node standing: the data dies with the overlay
		}
		if batches[dest.Addr] == nil {
			batches[dest.Addr] = make(map[string]WireItem)
		}
		it := items[k]
		batches[dest.Addr][k] = WireItem{V: it.Val, Ver: it.Ver, Src: it.Src}
	}
	addrs := make([]string, 0, len(batches))
	for a := range batches {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		batch := batches[addr]
		// The routed owner is the preferred target; any live leaf
		// neighbor is an acceptable alternate (a key parked off its
		// true owner is pushed home by the next stabilization round's
		// key repair). A lossy link drops individual dials, so each
		// target gets several passes before the batch is given up —
		// data must outlive transient loss.
		targets := []string{addr}
		for _, e := range cands {
			if e != nil && e.ID != n.id && e.Addr != addr {
				targets = append(targets, e.Addr)
			}
		}
		delivered := false
		for pass := 0; pass < 4 && !delivered; pass++ {
			for _, t := range targets {
				if _, err := n.call(t, request{Op: "handoff", Items: batch}); err == nil {
					delivered = true
					break
				}
			}
		}
	}
}

func entryOr(w *WireEntry, fallback entry) entry {
	if w == nil {
		return fallback
	}
	return toEntry(*w)
}

func clone(e entry) *entry {
	c := e
	return &c
}
