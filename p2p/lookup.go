package p2p

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
)

// Route describes one resolved lookup.
type Route struct {
	Target   ids.CycloidID
	Terminal ids.CycloidID
	Addr     string // terminal's transport address
	Hops     int
	Timeouts int            // unreachable candidates skipped
	Phases   map[string]int // hops per routing phase
	// TraceID is the operation's 32-hex-character distributed trace ID
	// when it was sampled (Config.TraceSample or anomaly-forced), ""
	// otherwise. Load harnesses attach it to SLO outliers so a p99
	// exemplar can be pulled from the cluster's span buffers.
	TraceID string
}

// Lookup routes a request for an application key from this node and
// returns the route to the responsible node.
func (n *Node) Lookup(key string) (Route, error) {
	return n.LookupContext(context.Background(), key)
}

// LookupContext is Lookup with each per-candidate dial capped by the
// context's deadline, so a blackholed neighbor costs at most the time
// the caller budgeted rather than the full dial-timeout ladder.
func (n *Node) LookupContext(ctx context.Context, key string) (Route, error) {
	ot := n.beginOp("lookup", key)
	r, _, err := n.routeAvoiding(ctx, n.keyPoint(key), "", nil, ot)
	if id := n.endOp(ot, err); id != "" {
		r.TraceID = id
	}
	return r, err
}

// Put stores a value on the node responsible for the key; with
// replication enabled the owner fans copies out to its replica set.
func (n *Node) Put(key string, value []byte) error {
	return n.PutContext(context.Background(), key, value)
}

// PutContext is Put with dials capped by the context's deadline.
func (n *Node) PutContext(ctx context.Context, key string, value []byte) (err error) {
	ot := n.beginOp("put", key)
	defer func() { n.endOp(ot, err) }()
	r, _, err := n.routeAvoiding(ctx, n.keyPoint(key), "", nil, ot)
	if err != nil {
		return err
	}
	if r.Terminal == n.id {
		_, err := n.putOwner(ctx, key, value, ot)
		return err
	}
	// A racing join can make the routed terminal disown the key by the
	// time the store arrives; it rejects with a redirect entry pointing
	// at the node it believes responsible. Follow a short redirect chain
	// rather than stranding the value.
	addr := r.Addr
	for hop := 0; hop < 3; hop++ {
		resp, err := n.callRetry(ctx, addr, request{Op: "store", Key: key, Value: value}, ot)
		if err == nil {
			n.tel.redirectDepth.Observe(int64(hop))
			return nil
		}
		if resp.Redirect == nil {
			return err
		}
		n.tel.putRedirects.Inc()
		n.log.Debug("store redirected", "key", key, "from", addr, "to", resp.Redirect.Addr)
		red := toEntry(*resp.Redirect)
		if red.ID == n.id {
			if _, perr := n.putOwner(ctx, key, value, ot); perr != nil {
				return perr
			}
			n.tel.redirectDepth.Observe(int64(hop + 1))
			return nil
		}
		addr = red.Addr
	}
	return fmt.Errorf("p2p: put %q: no node accepted ownership", key)
}

// Get fetches the value stored under key, routing from this node. The
// read rides the route itself: every remote step carries the key, and
// the owner answers from its store in the same response that ends the
// route, so a Get that hits costs one exchange per hop and no more.
// Anything else — a miss, a route that ended at this node or short of
// a Done decision — reads the terminal with a separate fetch. When the
// routed owner is unreachable and replication is enabled, the read
// falls back through the replica set: the failure is promoted into the
// route's timeout accounting, the corpse is suspected so the re-route
// steers around it, and the crash successor's neighborhood — where the
// dead owner's replicas live — is probed for a surviving copy.
func (n *Node) Get(key string) ([]byte, Route, error) {
	return n.GetContext(context.Background(), key)
}

// GetContext is Get with dials capped by the context's deadline.
func (n *Node) GetContext(ctx context.Context, key string) (val []byte, r Route, err error) {
	ot := n.beginOp("get", key)
	defer func() {
		if id := n.endOp(ot, err); id != "" {
			r.TraceID = id
		}
	}()
	kp := n.keyPoint(key)
	r, last, err := n.routeAvoiding(ctx, kp, key, nil, ot)
	if err != nil {
		return nil, r, err
	}
	if last.read.found {
		return last.read.val, r, nil
	}
	// A folded miss is confirmed by the fetch below: an owner whose
	// build predates the folded read ignores the step's key and answers
	// Done without a value, which looks like a miss.
	if last.blocked && n.cfg.Replicas > 1 {
		// The route stopped short because the candidates its last
		// decision dialed were unreachable or shedding — the owner's
		// death or overload, now met by the terminal step instead of by
		// a fetch — so the node that kept the request serves the read
		// past them.
		n.tel.replicaFallbacks.Inc()
		ot.annotate("replica-fallback")
	}
	// failed collects the terminals whose fetch already failed; the
	// re-route is seeded with them so the same corpse is not dialed —
	// and charged — a second time by pass-1 candidate ordering (a
	// one-strike suspect is demoted, not skipped), and the replica probe
	// skips them. Allocated only once a fetch fails.
	var failed map[string]bool
	term := entry{ID: r.Terminal, Addr: r.Addr}
	for attempt := 0; attempt < n.cfg.Replicas; attempt++ {
		v, found, ferr := n.fetchAt(ctx, term, key, ot)
		if ferr == nil {
			if found {
				return v, r, nil
			}
			break // reachable but empty: fall through to the replica probe
		}
		if n.cfg.Replicas <= 1 {
			return nil, r, ferr
		}
		if IsBusy(ferr) {
			// Owner overloaded, not dead: fall back through a replica
			// without a timeout charge or a suspicion strike. The wire
			// layer's soft demotion already steers this round's re-route
			// around it, and it rejoins routing when its window expires.
			n.tel.replicaFallbacks.Inc()
		} else {
			// Terminal died between route and fetch: account the timeout,
			// suspect the corpse, and re-route — candidate ordering now
			// avoids it, so the route terminates at the crash successor.
			n.chargeTimeout(&r, term.Addr, ot)
			n.tel.replicaFallbacks.Inc()
		}
		ot.annotate("replica-fallback")
		n.log.Debug("owner unreachable, rerouting", "key", key, "owner", term.Addr, "err", ferr)
		if failed == nil {
			failed = make(map[string]bool)
		}
		failed[term.Addr] = true
		r2, end, rerr := n.routeAvoiding(ctx, kp, "", failed, ot)
		if rerr != nil {
			return nil, r, ferr
		}
		r.add(r2)
		r.Terminal, r.Addr = r2.Terminal, r2.Addr
		term, last = entry{ID: r2.Terminal, Addr: r2.Addr}, end
		if failed[term.Addr] {
			break // rerouting made no progress
		}
	}
	if n.cfg.Replicas > 1 {
		// The terminal answered but has no copy (a crash successor the
		// anti-entropy pass has not reached yet, or a mid-transition
		// owner): probe its leaf neighborhood, which coincides with the
		// previous owner's replica set.
		if v, ok := n.localFetch(key); ok {
			return v, r, nil
		}
		for _, cand := range n.replicaProbes(ctx, term, kp, failed) {
			n.tel.replicaProbes.Inc()
			v, found, ferr := n.fetchAt(ctx, cand, key, ot)
			if ferr != nil {
				if !IsBusy(ferr) {
					n.chargeTimeout(&r, cand.Addr, ot)
				}
				continue
			}
			if found {
				return v, r, nil
			}
		}
	}
	if !last.Done {
		// Nothing turned up and the route stopped short. Its final
		// decision may have skipped candidates with suspectDrop strikes
		// that have recovered since — strikes clear only when
		// stabilization re-probes them — so as a last resort resume the
		// route through each of them once. A live one clears its strikes
		// with the exchange; a dead one costs this failing read a timeout.
		for _, w := range last.Candidates {
			cand := toEntry(w)
			if cand.ID == n.id || failed[cand.Addr] || n.strikesOf(cand.Addr) < suspectDrop {
				continue
			}
			r2, end, rerr := n.routeTraced(ctx, cand, kp, "lookup", key, failed, ot)
			r.add(r2)
			if rerr != nil {
				if ctx.Err() != nil {
					break
				}
				if r2.Hops == 0 && !IsBusy(rerr) {
					// The resumed route's first step failed: cand is dead.
					n.chargeTimeout(&r, cand.Addr, ot)
				}
				continue
			}
			if end.read.found {
				r.Terminal, r.Addr = r2.Terminal, r2.Addr
				return end.read.val, r, nil
			}
		}
	}
	return nil, r, ErrNotFound
}

// add folds a follow-up route's hops, timeouts and phases into r.
func (r *Route) add(r2 Route) {
	r.Hops += r2.Hops
	r.Timeouts += r2.Timeouts
	for ph, c := range r2.Phases {
		r.Phases[ph] += c
	}
}

// chargeTimeout accounts one unreachable node met by a read outside
// routing: the route's timeout count, the node's suspicion strike and
// the forced trace.
func (n *Node) chargeTimeout(r *Route, addr string, ot *opTrace) {
	r.Timeouts++
	n.tel.timeouts.Inc()
	n.suspect(addr)
	ot.force("timeout")
}

// localFetch reads a key from this node's own store.
func (n *Node) localFetch(key string) ([]byte, bool) {
	n.mu.RLock()
	it, ok := n.store.Get(key)
	n.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return append([]byte(nil), it.Val...), true
}

// fetchAt reads a key from the given node — locally when it is this
// node, over the wire otherwise.
func (n *Node) fetchAt(ctx context.Context, at entry, key string, ot *opTrace) ([]byte, bool, error) {
	if at.ID == n.id && !n.isStopped() {
		v, ok := n.localFetch(key)
		return v, ok, nil
	}
	resp, err := n.callRetry(ctx, at.Addr, request{Op: "fetch", Key: key}, ot)
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// replicaProbes lists the terminal's leaf neighborhood ranked by
// closeness to the key, excluding the terminal itself and the addresses
// whose read already failed — the candidates most likely to hold a
// replica of the key.
func (n *Node) replicaProbes(ctx context.Context, term entry, kp ids.CycloidID, failed map[string]bool) []entry {
	st, err := n.stateOfOrLocalCtx(ctx, term)
	if err != nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []entry
	for _, w := range []*WireEntry{st.InsideL, st.InsideR, st.OutsideL, st.OutsideR} {
		if w == nil {
			continue
		}
		e := toEntry(*w)
		if e.ID == n.id || e.Addr == term.Addr || failed[e.Addr] || seen[e.Addr] {
			continue
		}
		if n.strikesOf(e.Addr) >= suspectDrop {
			continue // known corpse: don't pay its timeout again
		}
		seen[e.Addr] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return n.space.Closer(kp, out[i].ID, out[j].ID) })
	if len(out) > n.cfg.Replicas {
		out = out[:n.cfg.Replicas]
	}
	return out
}

// route drives an iterative lookup starting at this node on behalf of
// the maintenance plane (stabilization's key repair and routing-table
// search).
func (n *Node) route(t ids.CycloidID) (Route, error) {
	if n.isStopped() {
		return Route{}, ErrStopped
	}
	r, _, err := n.routeTraced(context.Background(), *n.selfEntry(), t, "stabilize", "", nil, nil)
	return r, err
}

// routeAvoiding routes a client operation from this node, reading key
// on the way when it is non-empty (see routeTraced), and treating every
// address in avoid as already dead: it is neither dialed nor charged a
// timeout. Reads use it to re-route around an owner whose corpse they
// already paid for once.
func (n *Node) routeAvoiding(ctx context.Context, t ids.CycloidID, key string, avoid map[string]bool, ot *opTrace) (Route, stepResult, error) {
	if n.isStopped() {
		return Route{}, stepResult{}, ErrStopped
	}
	return n.routeTraced(ctx, *n.selfEntry(), t, "lookup", key, avoid, ot)
}

// routeTraced drives an iterative lookup starting at an arbitrary live
// node (Join uses it before this node is part of the overlay). At each
// step the current node's local decision yields candidates in preference
// order; a candidate that cannot be dialed costs a timeout and the next
// is tried, the live-network equivalent of the paper's timeout
// accounting.
//
// The shared suspicion list reorders that preference: a candidate with
// one strike is tried only after every clean candidate failed, and one
// with suspectDrop strikes is skipped outright until stabilization
// re-probes it — so the same corpse stops costing a timeout on every
// route. Each dial is additionally capped by the context's deadline.
//
// Every hop updates the node's metrics, and when tracing is enabled the
// whole route is recorded as one phase-annotated trace under kind.
//
// The returned step is the decision the route ended on: Done unless
// no candidate of the terminal's decision could be stepped to. A
// non-empty key makes the route a read: every remote step carries it,
// and a route ending on a remote Done step returns that node's answer
// from its store as the step's terminal read. Any other ending leaves
// the read unset.
func (n *Node) routeTraced(ctx context.Context, start entry, t ids.CycloidID, kind, key string, avoid map[string]bool, ot *opTrace) (r Route, step stepResult, err error) {
	r = Route{Target: t, Phases: make(map[string]int)}
	d := n.space.Dim()
	window := 4*d + 16
	budget := 64*d + 128
	greedyOnly := false
	// dead holds addresses that failed during this route; allocated
	// lazily since a clean route (the common case) never writes it.
	var dead map[string]bool
	if len(avoid) > 0 {
		dead = make(map[string]bool, len(avoid))
		for a := range avoid {
			dead[a] = true
		}
	}

	var tr *telemetry.Trace
	var began time.Time
	if n.traces != nil {
		began = time.Now()
		tr = &telemetry.Trace{Kind: kind, Target: t.String(), Source: start.ID.String()}
	}
	defer func() {
		n.tel.lookups.Inc()
		n.tel.lookupHops.Observe(int64(r.Hops))
		if err != nil {
			n.tel.failures.Inc()
		}
		if tr != nil {
			tr.Terminal = r.Terminal.String()
			tr.Timeouts = r.Timeouts
			if err != nil {
				tr.Err = err.Error()
			}
			tr.Duration = time.Since(began)
			n.traces.Add(*tr)
		}
	}()

	cur := start
	best := start.ID
	sinceImprove := 0
	step, err = n.stepAt(ctx, cur, t, greedyOnly, key, ot)
	if err != nil {
		return r, step, fmt.Errorf("p2p: route: first hop: %w", err)
	}
	for !step.Done {
		if cerr := ctx.Err(); cerr != nil {
			return r, step, fmt.Errorf("p2p: route to %v: %w", t, cerr)
		}
		moved := false
		// Per-hop decision accounting, reset each forwarding step.
		hopTimeouts, hopShed, hopDemoted, hopSkipped := 0, 0, 0, 0
		for pass := 0; pass < 2 && !moved; pass++ {
			for ci, w := range step.Candidates {
				cand := toEntry(w)
				if dead[cand.Addr] {
					continue // already found unreachable during this route
				}
				s := n.strikesOf(cand.Addr)
				if s >= suspectDrop {
					if pass == 0 {
						hopSkipped++
						n.tel.skips.Inc()
					}
					continue // known corpse: skipped outright
				}
				if pass == 0 && (s > 0 || n.isOverloaded(cand.Addr)) {
					// Suspected or inside its overload window: demoted to
					// pass 1, tried only after every clean candidate.
					hopDemoted++
					n.tel.demotions.Inc()
					continue
				}
				next, serr := n.stepAt(ctx, cand, t, greedyOnly, key, ot)
				if serr != nil {
					if IsBusy(serr) {
						// Shedding, not dead: step around it this round
						// without a timeout charge or a suspicion strike.
						if dead == nil {
							dead = make(map[string]bool)
						}
						dead[cand.Addr] = true
						hopShed++
						ot.force("shed")
						continue
					}
					r.Timeouts++
					n.tel.timeouts.Inc()
					hopTimeouts++
					if dead == nil {
						dead = make(map[string]bool)
					}
					dead[cand.Addr] = true
					n.suspect(cand.Addr)
					ot.force("timeout")
					continue
				}
				r.Hops++
				r.Phases[step.Phase]++
				n.tel.hopPhase(step.Phase)
				if tr != nil {
					tr.Hops = append(tr.Hops, telemetry.Hop{
						Phase:    step.Phase,
						From:     cur.ID.String(),
						To:       cand.ID.String(),
						Rank:     ci,
						Demoted:  hopDemoted,
						Skipped:  hopSkipped,
						Timeouts: hopTimeouts,
						Greedy:   greedyOnly,
					})
				}
				cur, step = cand, next
				moved = true
				break
			}
		}
		if !moved {
			// Every candidate unreachable: cur keeps the request.
			step.blocked = hopTimeouts+hopShed > 0
			break
		}
		if n.space.Closer(t, cur.ID, best) {
			best = cur.ID
			sinceImprove = 0
		} else if sinceImprove++; sinceImprove >= window && !greedyOnly {
			greedyOnly = true
			n.tel.greedyFallbacks.Inc()
			ot.force("greedy-fallback")
			if step, err = n.stepAt(ctx, cur, t, true, key, ot); err != nil {
				return r, step, err
			}
		}
		if r.Hops >= budget && !greedyOnly {
			greedyOnly = true
			n.tel.greedyFallbacks.Inc()
			ot.force("greedy-fallback")
			if step, err = n.stepAt(ctx, cur, t, true, key, ot); err != nil {
				return r, step, err
			}
		}
		if r.Hops >= 2*budget {
			return r, step, fmt.Errorf("p2p: route to %v did not converge", t)
		}
	}
	r.Terminal = cur.ID
	r.Addr = cur.Addr
	return r, step, nil
}

// stepResult is a hop decision with resolved addresses.
type stepResult struct {
	Phase      string
	Candidates []WireEntry
	Done       bool
	// blocked marks the decision a route stopped short on because
	// every candidate it dialed failed or shed, as opposed to one whose
	// candidates were all skipped as known corpses or already found
	// dead earlier in the route.
	blocked bool
	read    termRead
}

// termRead is a Get's key as read by the node whose step decision was
// Done, answered in that step's response. found is false when the step
// carried no key, did not end the route, or the node holds no copy.
type termRead struct {
	val   []byte
	ver   uint64
	found bool
}

// stepAt obtains the routing decision of the given node — locally when it
// is this node, over the wire otherwise. A wire failure means the node is
// unreachable (dead), which the caller accounts as a timeout. Each wire
// exchange is recorded as one call span under the operation's scope. A
// remote step carries key, when non-empty, for the terminal read.
func (n *Node) stepAt(ctx context.Context, at entry, t ids.CycloidID, greedyOnly bool, key string, ot *opTrace) (stepResult, error) {
	if at.ID == n.id && !n.isStopped() {
		return n.localStep(t, greedyOnly), nil
	}
	tw := WireEntry{K: t.K, A: t.A}
	req := request{Op: "step", Target: &tw, GreedyOnly: greedyOnly, Key: key}
	sid, t0 := ot.startCall(&req)
	resp, err := n.callCtx(ctx, at.Addr, req)
	ot.endCall(sid, t0, "step", at.Addr, err)
	if err != nil {
		return stepResult{}, err
	}
	s := stepResult{Phase: resp.Phase, Candidates: resp.Candidates, Done: resp.Done}
	if resp.Done && key != "" {
		s.read = termRead{val: resp.Value, ver: resp.Ver, found: resp.Found}
	}
	return s, nil
}

// decodeReclaim unpacks a reclaim response batch.
func decodeReclaim(v []byte) (map[string]WireItem, error) {
	if len(v) == 0 {
		return nil, nil
	}
	items := make(map[string]WireItem)
	if err := json.Unmarshal(v, &items); err != nil {
		return nil, err
	}
	return items, nil
}
