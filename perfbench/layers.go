package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/p2p"
	"cycloid/p2p/store"
)

// Span names. Each is recorded by this package around a call into one
// layer; the part before the dot names the layer.
const (
	spanGet uint8 = iota
	spanPut
	spanLookup
	spanSession
	spanOpen
	spanRead
	spanUpload
	spanJoin
	spanLeave
	spanStabilize
	spanDial
	spanWrite
	spanStorePut
	spanStoreSync
	numSpans
)

var spanNames = [numSpans]string{
	"kv.get", "kv.put", "kv.lookup",
	"blob.session", "blob.open", "blob.read", "blob.put",
	"membership.join", "membership.leave", "membership.stabilize",
	"net.dial", "net.write",
	"store.put", "store.sync",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent is 0 where the harness does not know the
// caller (server-side and pooled-writer work).
type span struct {
	id, parent uint64
	start, end int64
	name       uint8
}

// maxSpans bounds the spans kept in memory per run; later spans are
// counted as dropped. Counters are kept for every call regardless.
const maxSpans = 1 << 19

// layers is the traced run's instrumentation: wrapping transports and
// stores, the span buffer, and counters taken at the same boundaries.
// Recording is off until enable, so set-up and warm-up are not
// recorded.
type layers struct {
	on    atomic.Bool
	epoch time.Time

	// spans holds the kept spans by id; spanMu orders slot writes with
	// reading them back, since a span begun while recording was on can
	// end on a server goroutine after the run reads the buffer.
	spanMu  sync.Mutex
	spans   []span
	next    atomic.Uint64
	dropped atomic.Uint64

	// Per span name: spans ended and their summed duration.
	count, nanos [numSpans]atomic.Int64

	// Counters at the transport and store seams.
	dials, reads, bytesOut atomic.Int64
	flushes, walBytes      atomic.Int64
	syncMu                 sync.Mutex
	syncs                  []float64 // every Sync call's duration, µs
}

func newLayers() *layers {
	return &layers{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// enable starts recording; a nil *layers (untraced) ignores it.
func (l *layers) enable() {
	if l != nil {
		l.on.Store(true)
	}
}

// disable stops recording; a nil *layers (untraced) ignores it.
func (l *layers) disable() {
	if l != nil {
		l.on.Store(false)
	}
}

// tspan is a span in progress; on is false when recording was off at
// its start, and then finishing it records nothing.
type tspan struct {
	id    uint64
	start time.Duration
	on    bool
}

// begin starts a span. A nil *layers (the untraced run) records
// nothing.
func (l *layers) begin() tspan {
	if l == nil || !l.on.Load() {
		return tspan{}
	}
	return tspan{start: time.Since(l.epoch), on: true}
}

// beginParent starts a span whose id is reserved up front, so spans it
// causes can name it as their parent before it ends.
func (l *layers) beginParent() tspan {
	t := l.begin()
	if t.on {
		t.id = l.next.Add(1)
	}
	return t
}

// end finishes t as a span called name, caused by parent (0: unknown),
// and returns its duration.
func (l *layers) end(t tspan, name uint8, parent uint64) time.Duration {
	if !t.on {
		return 0
	}
	now := time.Since(l.epoch)
	id := t.id
	if id == 0 {
		id = l.next.Add(1)
	}
	l.count[name].Add(1)
	l.nanos[name].Add(int64(now - t.start))
	if id > uint64(len(l.spans)) {
		l.dropped.Add(1)
	} else {
		l.spanMu.Lock()
		l.spans[id-1] = span{id: id, parent: parent, start: int64(t.start), end: int64(now), name: name}
		l.spanMu.Unlock()
	}
	return now - t.start
}

// totals snapshots the per-name span counts and summed durations, which
// cover every span, kept or dropped.
func (l *layers) totals() (count, nanos [numSpans]int64) {
	for i := range count {
		count[i] = l.count[i].Load()
		nanos[i] = l.nanos[i].Load()
	}
	return count, nanos
}

// recorded returns the spans kept so far (slots reserved by spans still
// open are skipped).
func (l *layers) recorded() []span {
	n := l.next.Load()
	if n > uint64(len(l.spans)) {
		n = uint64(len(l.spans))
	}
	out := make([]span, 0, n)
	l.spanMu.Lock()
	defer l.spanMu.Unlock()
	for _, s := range l.spans[:n] {
		if s.id != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes tabulates each span name's total and self time: a span's
// self time is its duration minus the part its children cover.
func selfTimes(spans []span) []selfRow {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := make([]selfRow, numSpans)
	for i := range rows {
		rows[i].name = spanNames[i]
	}
	for _, s := range spans {
		d := time.Duration(s.end - s.start)
		r := &rows[s.name]
		r.count++
		r.total += d
		r.self += d - covered(s, children[s.id])
	}
	out := rows[:0]
	for _, r := range rows {
		if r.count > 0 {
			out = append(out, r)
		}
	}
	return out
}

// covered is how much of parent's interval the children cover, counting
// overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > hi {
			sum += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	sum += hi - lo
	return time.Duration(sum)
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, spanNames[s.name], s.start, s.end}); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// transport wraps a node's Transport so every dial, write and read on
// its connections, inbound and outbound, is counted and timed.
func (l *layers) transport(inner p2p.Transport) p2p.Transport {
	return &tracedTransport{inner: inner, l: l}
}

type tracedTransport struct {
	inner p2p.Transport
	l     *layers
}

func (t *tracedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, l: t.l}, nil
}

func (t *tracedTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	ts := t.l.begin()
	c, err := t.inner.Dial(addr, timeout)
	t.l.end(ts, spanDial, 0)
	if err != nil {
		return nil, err
	}
	if ts.on {
		t.l.dials.Add(1)
	}
	return &tracedConn{Conn: c, l: t.l}, nil
}

type tracedListener struct {
	net.Listener
	l *layers
}

func (ln *tracedListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, l: ln.l}, nil
}

type tracedConn struct {
	net.Conn
	l *layers
}

func (c *tracedConn) Write(p []byte) (int, error) {
	ts := c.l.begin()
	n, err := c.Conn.Write(p)
	if ts.on {
		c.l.end(ts, spanWrite, 0)
		c.l.bytesOut.Add(int64(n))
	}
	return n, err
}

// Read is counted, not timed: a read blocks until the peer sends, so
// its duration is idle wait rather than work.
func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.reads.Add(1)
	}
	return n, err
}

// store wraps a node's storage backend, timing every Put and Sync.
func (l *layers) store(inner store.Store) store.Store {
	return &tracedStore{Store: inner, l: l}
}

// storeHooks counts WAL appends and group-commit flushes of a durable
// store; the Fsync hook fires once per flush, fsync or not.
func (l *layers) storeHooks() store.Hooks {
	return store.Hooks{
		Append: func(bytes int) {
			if l.on.Load() {
				l.walBytes.Add(int64(bytes))
			}
		},
		Fsync: func(records int64, d time.Duration) {
			if l.on.Load() {
				l.flushes.Add(1)
			}
		},
	}
}

type tracedStore struct {
	store.Store
	l *layers
}

func (s *tracedStore) Put(key string, it store.Item) {
	ts := s.l.begin()
	s.Store.Put(key, it)
	s.l.end(ts, spanStorePut, 0)
}

func (s *tracedStore) Sync() error {
	ts := s.l.begin()
	err := s.Store.Sync()
	if d := s.l.end(ts, spanStoreSync, 0); ts.on {
		s.l.syncMu.Lock()
		s.l.syncs = append(s.l.syncs, usec(d))
		s.l.syncMu.Unlock()
	}
	return err
}
