package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"cycloid/p2p/blob"
)

// Stream session kinds, weighted upload:view = 1:15.
const (
	sessUpload uint8 = iota
	sessView
)

// stream drives the blob mix: viewers read whole blobs unpaced through
// the prefetching reader; one session in uploadEvery instead writes a
// fresh generation of an upload blob no viewer reads.
type stream struct {
	s    spec
	ops  []op
	view [][]byte // content of each view blob
	sums [][]blob.Digest
	// gens[u] is the generation the harness last committed for upload
	// blob u. Upload blob u belongs to client u%clients, so no two
	// writers ever race on one name.
	gens []uint64
}

func newStream(s spec, seed int64) *stream {
	w := &stream{
		s:    s,
		ops:  drawOps(seed, s.blobs, s.nodes, []int{1, s.uploadEvery - 1}),
		gens: make([]uint64, s.uploadBlobs),
	}
	for b := 0; b < s.blobs; b++ {
		data := blobData(viewName(b), 1, s.blobSize)
		w.view = append(w.view, data)
		var sums []blob.Digest
		for lo := 0; lo < len(data); lo += s.chunkSize {
			sums = append(sums, sha256.Sum256(data[lo:min(lo+s.chunkSize, len(data))]))
		}
		w.sums = append(w.sums, sums)
	}
	return w
}

func viewName(b int) string   { return fmt.Sprintf("view-%02d", b) }
func uploadName(u int) string { return fmt.Sprintf("upload-%d", u) }

// preload commits every view blob and the first generation of every
// upload blob.
func (w *stream) preload(c *cluster) error {
	if err := c.blobStores(w.s); err != nil {
		return err
	}
	ctx := context.Background()
	total := w.s.blobs + w.s.uploadBlobs
	if err := parallel(4, total, func(i int) error {
		bs := c.blobs[i%len(c.blobs)]
		if i < w.s.blobs {
			return bs.Put(ctx, viewName(i), w.view[i])
		}
		u := i - w.s.blobs
		return bs.Put(ctx, uploadName(u), blobData(uploadName(u), 1, w.s.blobSize))
	}); err != nil {
		return err
	}
	for u := range w.gens {
		w.gens[u] = 1
	}
	return nil
}

func (w *stream) do(c *cluster, cl, i int, rec *recorder) {
	o := w.ops[i%len(w.ops)]
	bs := c.blobs[o.src]
	if o.kind == sessUpload {
		per := w.s.uploadBlobs / clients
		u := int(o.item)%per*clients + cl
		name, gen := uploadName(u), w.gens[u]+1
		ts := c.lay.begin()
		t0 := time.Now()
		err := bs.Put(context.Background(), name, blobData(name, gen, w.s.blobSize))
		c.lay.end(ts, spanUpload, 0)
		if err != nil {
			rec.fail(fmt.Errorf("upload %s: %w", name, err))
			return
		}
		w.gens[u] = gen
		rec.sample(latWrite, time.Since(t0))
		rec.done(0)
		return
	}

	b := int(o.item)
	vt, err := view(c.lay, bs, viewName(b), w.view[b], make([]byte, w.s.chunkSize),
		func(m *blob.Manifest) error { return w.checkManifest(b, m) })
	var wrong *wrongOutput
	switch {
	case errors.As(err, &wrong):
		rec.violate("%v", err)
	case err != nil:
		rec.fail(err)
	default:
		rec.sample(latRoute, vt.open)
		rec.sample(latRead, vt.ttfb)
		rec.done(len(w.view[b]))
	}
}

// wrongOutput is a blob read whose manifest or bytes differ from what
// was written: a violation, where any other error is a failed
// operation.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return e.msg }

// viewTimes is what one view session measured from its start: until
// Open returned, and until the first byte arrived.
type viewTimes struct{ open, ttfb time.Duration }

// view reads blob name whole through bs, buf at a time, as one
// blob.session span with Open and Read children. It checks the manifest
// with check and every byte against want.
func view(lay *layers, bs *blob.Store, name string, want, buf []byte, check func(*blob.Manifest) error) (viewTimes, error) {
	var vt viewTimes
	sess := lay.beginParent()
	defer lay.end(sess, spanSession, 0)
	t0 := time.Now()
	ts := lay.begin()
	r, err := bs.Open(context.Background(), name)
	lay.end(ts, spanOpen, sess.id)
	if err != nil {
		return vt, fmt.Errorf("open %s: %w", name, err)
	}
	defer r.Close()
	vt.open = time.Since(t0)
	if err := check(r.Manifest()); err != nil {
		return vt, &wrongOutput{err.Error()}
	}
	got := 0
	for {
		ts := lay.begin()
		n, err := r.Read(buf)
		lay.end(ts, spanRead, sess.id)
		if n > 0 {
			if got == 0 {
				vt.ttfb = time.Since(t0)
			}
			if got+n > len(want) || !bytes.Equal(buf[:n], want[got:got+n]) {
				return vt, &wrongOutput{fmt.Sprintf("blob %s: bytes %d..%d differ from what was written", name, got, got+n)}
			}
			got += n
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return vt, fmt.Errorf("read %s at %d: %w", name, got, err)
		}
	}
	if got != len(want) {
		return vt, &wrongOutput{fmt.Sprintf("blob %s: read %d bytes, wrote %d", name, got, len(want))}
	}
	return vt, nil
}

// checkManifest compares a view blob's manifest with what was written.
func (w *stream) checkManifest(b int, m *blob.Manifest) error {
	if m.Name != viewName(b) || m.Size != int64(len(w.view[b])) || m.ChunkSize != w.s.chunkSize || m.Gen != 1 || len(m.Sums) != len(w.sums[b]) {
		return fmt.Errorf("blob %s: manifest %s/%d/%d/gen %d/%d chunks does not match the written blob", viewName(b), m.Name, m.Size, m.ChunkSize, m.Gen, len(m.Sums))
	}
	for i, s := range m.Sums {
		if s != w.sums[b][i] {
			return fmt.Errorf("blob %s: manifest digest of chunk %d differs from the written chunk", viewName(b), i)
		}
	}
	return nil
}

// verify reads every upload blob back: it must be the generation the
// harness last committed, byte for byte.
func (w *stream) verify(c *cluster) error {
	ctx := context.Background()
	for u, gen := range w.gens {
		name := uploadName(u)
		r, err := c.blobs[u%len(c.blobs)].Open(ctx, name)
		if err != nil {
			return fmt.Errorf("final read of %s: %w", name, err)
		}
		got := make([]byte, r.Size())
		_, err = r.ReadAt(got, 0)
		r.Close()
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("final read of %s: %w", name, err)
		}
		if r.Manifest().Gen != gen || !bytes.Equal(got, blobData(name, gen, w.s.blobSize)) {
			return fmt.Errorf("final read of %s: got generation %d, want %d as written", name, r.Manifest().Gen, gen)
		}
	}
	return nil
}
