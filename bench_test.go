package cycloid_test

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks for the library's hot paths. The workloads themselves
// live in internal/bench so that cmd/cycloid-bench -json can run the
// same cases via testing.Benchmark and record ns/op, B/op and allocs/op
// to BENCH_cycloid.json; these wrappers only bind them to `go test
// -bench` names. Run cmd/cycloid-bench for the full paper-scale sweeps
// and formatted output.

import (
	"testing"

	"cycloid/internal/bench"
)

func BenchmarkTable1Lookup(b *testing.B)        { bench.Run(b, "Table1Lookup") }
func BenchmarkFig5PathLength(b *testing.B)      { bench.Run(b, "Fig5PathLength") }
func BenchmarkFig7Breakdown(b *testing.B)       { bench.Run(b, "Fig7Breakdown") }
func BenchmarkFig8KeyDistribution(b *testing.B) { bench.Run(b, "Fig8KeyDistribution") }
func BenchmarkFig9KeyDistributionSparse(b *testing.B) {
	bench.Run(b, "Fig9KeyDistributionSparse")
}
func BenchmarkFig10QueryLoad(b *testing.B)        { bench.Run(b, "Fig10QueryLoad") }
func BenchmarkFig11MassDeparture(b *testing.B)    { bench.Run(b, "Fig11MassDeparture") }
func BenchmarkFig12Churn(b *testing.B)            { bench.Run(b, "Fig12Churn") }
func BenchmarkFig13Sparsity(b *testing.B)         { bench.Run(b, "Fig13Sparsity") }
func BenchmarkFig14KoordeBreakdown(b *testing.B)  { bench.Run(b, "Fig14KoordeBreakdown") }
func BenchmarkAblationLeafSet(b *testing.B)       { bench.Run(b, "AblationLeafSet") }
func BenchmarkAblationStabilization(b *testing.B) { bench.Run(b, "AblationStabilization") }
func BenchmarkUngracefulFailures(b *testing.B)    { bench.Run(b, "UngracefulFailures") }
func BenchmarkLookup(b *testing.B)                { bench.Run(b, "Lookup") }
func BenchmarkLookupInstrumented(b *testing.B)    { bench.Run(b, "LookupInstrumented") }
func BenchmarkPutGet(b *testing.B)                { bench.Run(b, "PutGet") }
func BenchmarkJoinLeave(b *testing.B)             { bench.Run(b, "JoinLeave") }
func BenchmarkReplicatedPut(b *testing.B)         { bench.Run(b, "ReplicatedPut") }
func BenchmarkPutDurable(b *testing.B)            { bench.Run(b, "PutDurable") }
func BenchmarkPutDurableNoSync(b *testing.B)      { bench.Run(b, "PutDurableNoSync") }
func BenchmarkGetWithOwnerDown(b *testing.B)      { bench.Run(b, "GetWithOwnerDown") }
func BenchmarkPooledLookup(b *testing.B)          { bench.Run(b, "PooledLookup") }
func BenchmarkPooledGet(b *testing.B)             { bench.Run(b, "PooledGet") }
func BenchmarkPooledLookupJSON(b *testing.B)      { bench.Run(b, "PooledLookupJSON") }
func BenchmarkLookupDialPerRequest(b *testing.B)  { bench.Run(b, "LookupDialPerRequest") }
func BenchmarkLookupUnderShedding(b *testing.B)   { bench.Run(b, "LookupUnderShedding") }
func BenchmarkLookupTraced(b *testing.B)          { bench.Run(b, "LookupTraced") }
func BenchmarkLookupTracedUnsampled(b *testing.B) { bench.Run(b, "LookupTracedUnsampled") }
func BenchmarkBlobRead(b *testing.B)              { bench.Run(b, "BlobRead") }
func BenchmarkBlobReadPrefetch(b *testing.B)      { bench.Run(b, "BlobReadPrefetch") }
func BenchmarkBlobWrite(b *testing.B)             { bench.Run(b, "BlobWrite") }

// TestBenchWrappersCoverRegistry keeps the wrapper list above in sync
// with the internal/bench registry.
func TestBenchWrappersCoverRegistry(t *testing.T) {
	want := map[string]bool{
		"Table1Lookup": true, "Fig5PathLength": true, "Fig7Breakdown": true,
		"Fig8KeyDistribution": true, "Fig9KeyDistributionSparse": true,
		"Fig10QueryLoad": true, "Fig11MassDeparture": true, "Fig12Churn": true,
		"Fig13Sparsity": true, "Fig14KoordeBreakdown": true,
		"AblationLeafSet": true, "AblationStabilization": true,
		"UngracefulFailures": true, "Lookup": true,
		"LookupInstrumented": true, "PutGet": true,
		"JoinLeave": true, "ReplicatedPut": true, "PutDurable": true,
		"PutDurableNoSync": true, "GetWithOwnerDown": true,
		"PooledLookup": true, "PooledGet": true, "PooledLookupJSON": true, "LookupDialPerRequest": true,
		"LookupUnderShedding": true,
		"LookupTraced":        true, "LookupTracedUnsampled": true,
		"BlobRead": true, "BlobReadPrefetch": true, "BlobWrite": true,
	}
	cases := bench.Cases()
	if len(cases) != len(want) {
		t.Fatalf("registry has %d cases, wrappers cover %d", len(cases), len(want))
	}
	for _, c := range cases {
		if !want[c.Name] {
			t.Errorf("registry case %q has no go test wrapper", c.Name)
		}
	}
}
