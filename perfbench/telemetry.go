package main

import (
	"bytes"
	"encoding/json"

	"cycloid/p2p"
)

// telemetry is a snapshot of every node's metric registry, read through
// the public Telemetry() exposition: per node, the value of each series
// (histograms flattened into <name>_count and <name>_sum).
type telemetry map[*p2p.Node]map[string]float64

// Series names read from the nodes' registries.
const (
	telHops      = "cycloid_lookup_hop_count"
	telTimeouts  = "cycloid_lookup_timeouts_total"
	telAdmitted  = "cycloid_admission_admitted_total"
	telShed      = "cycloid_admission_shed_total"
	telRetries   = "cycloid_retries_total"
	telFanout    = "cycloid_replicate_fanout_size"
	telLWW       = "cycloid_lww_rejects_total"
	telChunks    = "cycloid_blob_chunk_fetches_total"
	telIntegrity = "cycloid_blob_integrity_failures_total"

	// Read from Node.PoolStats rather than the registry.
	poolDials  = "poolstats.dials"
	poolReuses = "poolstats.reuses"
)

// membershipOps are the wire ops of the membership protocol: joins,
// departures, hand-off and stabilization.
var membershipOps = []string{"state", "update", "handoff", "reclaim", "ping"}

// telRequests is the series counting wire requests served with op.
func telRequests(op string) string { return `cycloid_requests_total{op="` + op + `"}` }

func readTelemetry(nodes []*p2p.Node) telemetry {
	t := make(telemetry, len(nodes))
	for _, nd := range nodes {
		// Rendering numbers into a buffer and parsing them back cannot
		// fail but through a bug.
		var buf bytes.Buffer
		if err := nd.Telemetry().WriteJSON(&buf); err != nil {
			panic(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			panic(err)
		}
		vals := make(map[string]float64, len(raw))
		for k, v := range raw {
			var x float64
			if json.Unmarshal(v, &x) == nil {
				vals[k] = x
				continue
			}
			var h struct{ Count, Sum float64 }
			if json.Unmarshal(v, &h) == nil {
				vals[k+"_count"] = h.Count
				vals[k+"_sum"] = h.Sum
			}
		}
		if ps, ok := nd.PoolStats(); ok {
			vals[poolDials] = float64(ps.Dials)
			vals[poolReuses] = float64(ps.Reuses)
		}
		t[nd] = vals
	}
	return t
}

// delta is the growth of series name summed over every node of after
// (a node missing from before started from zero).
func delta(before, after telemetry, name string) float64 {
	sum := 0.0
	for nd, vals := range after {
		sum += vals[name] - before[nd][name]
	}
	return sum
}

// perNode is the growth of series name on each of the given nodes.
func perNode(before, after telemetry, nodes []*p2p.Node, name string) []float64 {
	out := make([]float64, 0, len(nodes))
	for _, nd := range nodes {
		out = append(out, after[nd][name]-before[nd][name])
	}
	return out
}
