package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"time"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/blob"
	"cycloid/p2p/codec"
)

// Microbenchmark sizing: batches of about batchDur, median of batches.
const (
	batchDur = 20 * time.Millisecond
	batches  = 5
	allocRun = 1000
)

// nsPerOp times f over batches and returns the median ns per call.
func nsPerOp(f func(i int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := time.Since(t0); d >= batchDur/4 {
			n = int(float64(n) * float64(batchDur) / float64(d))
			break
		}
		n *= 4
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call of f.
func allocsPerOp(f func(i int)) float64 {
	f(0)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < allocRun; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / allocRun
}

// nodeState converts a live node's wire state into the routing
// algorithm's input, as the node itself does before every decision.
func nodeState(ws *p2p.WireState) cycloid.NodeState {
	ptr := func(e *p2p.WireEntry) *ids.CycloidID {
		if e == nil {
			return nil
		}
		return &ids.CycloidID{K: e.K, A: e.A}
	}
	one := func(e *p2p.WireEntry) []ids.CycloidID {
		if e == nil {
			return nil
		}
		return []ids.CycloidID{{K: e.K, A: e.A}}
	}
	return cycloid.NodeState{
		ID:      ids.CycloidID{K: ws.Self.K, A: ws.Self.A},
		Cubical: ptr(ws.Cubical), CyclicL: ptr(ws.CyclicL), CyclicS: ptr(ws.CyclicS),
		InsideL: one(ws.InsideL), InsideR: one(ws.InsideR),
		OutsideL: one(ws.OutsideL), OutsideR: one(ws.OutsideR),
	}
}

// envelope is one request/response exchange of a shape the workload
// sends.
type envelope struct {
	name string
	req  codec.Request
	resp codec.Response
}

// envelopes returns the step, store and chunk exchanges with the
// workload's value and chunk sizes.
func envelopes(s spec) []envelope {
	from := codec.Entry{K: 3, A: 17, Addr: "127.0.0.1:40001"}
	cand := []codec.Entry{{K: 4, A: 19, Addr: "127.0.0.1:40002"}, {K: 2, A: 23, Addr: "127.0.0.1:40003"}, {K: 5, A: 11, Addr: "127.0.0.1:40004"}}
	value := s.valueSize
	chunk := s.chunkSize
	if chunk == 0 {
		chunk = probeChunkSize
	}
	if value == 0 {
		value = chunk // the stream workload's puts are chunks
	}
	return []envelope{
		{"step",
			codec.Request{Op: "step", From: from, Target: &codec.Entry{K: 5, A: 40}, DeadlineMs: 2000},
			codec.Response{OK: true, Phase: "ascending", Candidates: cand}},
		{"store",
			codec.Request{Op: "store", From: from, Key: keyName(42), Value: make([]byte, value), DeadlineMs: 2000},
			codec.Response{OK: true, Ver: 7}},
		{"chunk",
			codec.Request{Op: "fetch", From: from, Key: "blob:c:0123456789abcdef0123456789abcdef", DeadlineMs: 2000},
			codec.Response{OK: true, Found: true, Value: make([]byte, chunk), Ver: 3}},
	}
}

// micro measures the routing decision, the codec and the manifest
// decode on the shapes this workload's overlay produces.
func micro(s spec, c *cluster, m map[string]metric) error {
	var states []cycloid.NodeState
	for _, nd := range c.nodes {
		states = append(states, nodeState(nd.State()))
	}
	rng := rand.New(rand.NewSource(layoutSeed))
	targets := make([]ids.CycloidID, 256)
	for i := range targets {
		targets[i] = c.space.FromLinear(uint64(rng.Int63n(int64(c.space.Size()))))
	}
	var sc cycloid.Scratch
	setMetric(m, "route.decide_ns", "ns", nsPerOp(func(i int) {
		cycloid.DecideStepScratch(c.space, &states[i%len(states)], targets[i%len(targets)], false, &sc)
	}))

	for _, e := range envelopes(s) {
		var buf []byte
		enc := func(int) {
			buf, _ = codec.AppendRequest(buf[:0], &e.req)
			buf, _ = codec.AppendResponse(buf[:0], &e.resp)
		}
		reqBytes, err := codec.AppendRequest(nil, &e.req)
		if err != nil {
			return err
		}
		respBytes, err := codec.AppendResponse(nil, &e.resp)
		if err != nil {
			return err
		}
		dec := func(int) {
			var req codec.Request
			var resp codec.Response
			_ = codec.DecodeRequest(reqBytes, &req)
			_ = codec.DecodeResponse(respBytes, &resp)
		}
		setMetric(m, "codec.encode_ns."+e.name, "ns", nsPerOp(enc))
		setMetric(m, "codec.decode_ns."+e.name, "ns", nsPerOp(dec))
		setMetric(m, "codec.allocs."+e.name, "count", allocsPerOp(func(i int) { enc(i); dec(i) }))
	}

	man := &blob.Manifest{Name: "probe", Size: probeBlobSize, ChunkSize: probeChunkSize, Gen: 1,
		Sums: make([]blob.Digest, probeBlobSize/probeChunkSize)}
	for i := range man.Sums {
		man.Sums[i] = sha256.Sum256([]byte{byte(i)})
	}
	enc := man.Encode()
	setMetric(m, "blob.manifest_decode_ns", "ns", nsPerOp(func(int) { _, _ = blob.DecodeManifest(enc) }))
	return nil
}
