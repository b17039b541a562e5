package main

import (
	"fmt"
	"math/rand"
)

// spec is one workload's shape. See README.md for why each is chosen.
type spec struct {
	name   string
	nodes  int
	dim    int
	setups int // set-ups per run; setup_s is their median

	// Key/value mix (kv-zipf).
	keys      int
	valueSize int

	// Blob mix (stream).
	blobs       int
	blobSize    int
	chunkSize   int
	window      int
	uploadBlobs int
	uploadEvery int // one session in uploadEvery uploads
}

// The two workloads. Both run on loopback TCP with a WAL store per
// node. smoke shrinks each to a seconds-long shape for
// the package's tests, keeping every mechanism the full one exercises.
func workloadSpec(name string, smoke bool) (spec, error) {
	var s spec
	switch name {
	case "kv-zipf":
		s = spec{name: name, nodes: 16, dim: 6, setups: 9, keys: 4096, valueSize: 128}
	case "stream":
		s = spec{name: name, nodes: 16, dim: 6, setups: 9,
			blobs: 32, blobSize: 256 << 10, chunkSize: 8 << 10, window: 4, uploadBlobs: 8, uploadEvery: 16}
	default:
		return s, fmt.Errorf("unknown workload %q (kv-zipf or stream)", name)
	}
	if smoke {
		s.setups = 1
		s.keys /= 16
		s.blobs /= 4
		s.blobSize /= 4
		s.uploadBlobs /= 4
	}
	return s, nil
}

// Operation kinds of the key/value mix, weighted put:get:lookup = 1:4:5.
const (
	opPut uint8 = iota
	opGet
	opLookup
)

// op is one pre-drawn client operation: what to do, on which item
// (a Zipf rank), and from which node.
type op struct {
	kind uint8
	item uint16
	src  uint16
}

// opTableLen is how many operations are drawn up front; clients cycle
// through the table if a run outlasts it.
const opTableLen = 1 << 18

// zipfS is the Zipf exponent of every workload's popularity skew.
const zipfS = 1.2

// drawOps draws the operation table from the seed: Zipf(s=1.2) over
// items, kinds weighted by weights (indexed by kind), sources uniform
// over the first srcs nodes.
func drawOps(seed int64, items, srcs int, weights []int) []op {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(items-1))
	total := 0
	for _, w := range weights {
		total += w
	}
	ops := make([]op, opTableLen)
	for i := range ops {
		w := rng.Intn(total)
		k := 0
		for w >= weights[k] {
			w -= weights[k]
			k++
		}
		ops[i] = op{kind: uint8(k), item: uint16(z.Uint64()), src: uint16(rng.Intn(srcs))}
	}
	return ops
}

// layoutSeed fixes the overlay's node IDs and join order. The overlay
// is the same on every run of a workload; --seed draws the operation
// stream, so runs differ in what the clients do, not in which topology
// they do it on.
const layoutSeed = 20040426

// keyName is the key of Zipf rank i; the most popular key is rank 0.
func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// kvValue is the value written to key for the given write number: the
// key's tag first, so every read can check it got its own key's data,
// padded to size.
func kvValue(key string, n uint64, size int) []byte {
	v := fmt.Appendf(make([]byte, 0, size), "%s|%d|", key, n)
	for len(v) < size {
		v = append(v, 'x')
	}
	return v
}

// blobData is the deterministic content of blob name at generation gen.
func blobData(name string, gen uint64, size int) []byte {
	var h int64 = int64(gen) * 0x9e3779b9
	for _, c := range name {
		h = h*131 + int64(c)
	}
	b := make([]byte, size)
	rand.New(rand.NewSource(h)).Read(b)
	return b
}
