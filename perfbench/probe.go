package main

import (
	"context"
	"fmt"
	"time"

	"cycloid/p2p/blob"
)

// probeBlob is the probe's blob geometry: the stream workload's.
const (
	probeBlobSize  = 256 << 10
	probeChunkSize = 8 << 10
	probeWindow    = 4
	probeReads     = 8
	probeReplaced  = 2
)

// probeResult is what the blob and membership layers did, either in the
// traced window (where the workload exercises them) or in the probe.
type probeResult struct {
	opens                 []float64 // blob Open latencies, µs
	reads, readNanos      float64   // blob Read calls and their summed time
	fetches, integrity    float64   // chunk fetches and integrity failures
	joins, leaves, rounds []time.Duration
	msgs, events          float64 // membership wire requests and node replacements
}

// runProbe collects the blob and membership figures. A workload that
// bypasses a layer gets a short fixed probe of it on the same overlay
// after the window: kv-zipf reads no blobs, so one 256 KiB blob is
// written and read back probeReads times; neither workload changes
// membership, so probeReplaced nodes are replaced by a graceful Leave
// and a fresh Join, followed by one stabilization round.
func runProbe(s spec, c *cluster, lay *layers, win *window) (probeResult, error) {
	var p probeResult
	count, nanos := lay.totals()
	if s.blobs > 0 {
		p.opens = win.samples(latRoute)
		p.reads, p.readNanos = float64(count[spanRead]), float64(nanos[spanRead])
		p.fetches = delta(win.tel0, win.tel1, telChunks)
		p.integrity = delta(win.tel0, win.tel1, telIntegrity)
	}
	lay.enable()
	defer lay.disable()
	if s.blobs == 0 {
		if err := probeBlobs(c, lay, &p); err != nil {
			return p, err
		}
	}
	if err := probeMembership(c, &p); err != nil {
		return p, err
	}
	return p, nil
}

func probeBlobs(c *cluster, lay *layers, p *probeResult) error {
	geo := spec{chunkSize: probeChunkSize, window: probeWindow}
	if err := c.blobStores(geo); err != nil {
		return err
	}
	tel0 := readTelemetry(c.started)
	count0, nanos0 := lay.totals()
	ctx := context.Background()
	data := blobData("probe", 1, probeBlobSize)
	if err := c.blobs[0].Put(ctx, "probe", data); err != nil {
		return err
	}
	buf := make([]byte, probeChunkSize)
	geoCheck := func(m *blob.Manifest) error {
		if m.Size != int64(len(data)) || m.ChunkSize != probeChunkSize || m.Gen != 1 {
			return fmt.Errorf("probe blob: manifest %d/%d/gen %d does not match the written blob", m.Size, m.ChunkSize, m.Gen)
		}
		return nil
	}
	for i := 0; i < probeReads; i++ {
		vt, err := view(lay, c.blobs[(i+1)*len(c.blobs)/(probeReads+1)], "probe", data, buf, geoCheck)
		if err != nil {
			return err
		}
		p.opens = append(p.opens, usec(vt.open))
	}
	tel1 := readTelemetry(c.started)
	count1, nanos1 := lay.totals()
	p.reads = float64(count1[spanRead] - count0[spanRead])
	p.readNanos = float64(nanos1[spanRead] - nanos0[spanRead])
	p.fetches = delta(tel0, tel1, telChunks)
	p.integrity = delta(tel0, tel1, telIntegrity)
	return nil
}

func probeMembership(c *cluster, p *probeResult) error {
	tel0 := readTelemetry(c.started)
	for i := 0; i < probeReplaced; i++ {
		leave, join, err := c.replace(len(c.nodes)-1-i, len(c.nodes)/2)
		if err != nil {
			return err
		}
		p.leaves = append(p.leaves, leave)
		p.joins = append(p.joins, join)
	}
	p.rounds = append(p.rounds, c.stabilizeRound())
	tel1 := readTelemetry(c.started)
	p.events = probeReplaced
	for _, op := range membershipOps {
		p.msgs += delta(tel0, tel1, telRequests(op))
	}
	return nil
}
