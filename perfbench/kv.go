package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/ids"
)

// kv drives the key/value mix of kv-zipf.
type kv struct {
	s      spec
	ops    []op
	owners []ids.CycloidID // brute-force owner per key
	writes atomic.Uint64   // write counter, unique per Put value
}

func newKV(s spec, seed int64) *kv {
	return &kv{s: s, ops: drawOps(seed, s.keys, s.nodes, []int{1, 4, 5})}
}

// preload writes every key once, eight writers in parallel.
func (w *kv) preload(c *cluster) error {
	w.owners = make([]ids.CycloidID, w.s.keys)
	for i := range w.owners {
		w.owners[i] = c.owner(keyName(i))
	}
	return parallel(8, w.s.keys, func(i int) error {
		key := keyName(i)
		return c.nodes[i%len(c.nodes)].Put(key, kvValue(key, w.writes.Add(1), w.s.valueSize))
	})
}

func (w *kv) do(c *cluster, cl, i int, rec *recorder) {
	o := w.ops[i%len(w.ops)]
	nd := c.nodes[o.src]
	key := keyName(int(o.item))
	lay := c.lay
	ts := lay.begin()
	t0 := time.Now()
	switch o.kind {
	case opPut:
		err := nd.Put(key, kvValue(key, w.writes.Add(1), w.s.valueSize))
		lay.end(ts, spanPut, 0)
		if err != nil {
			rec.fail(fmt.Errorf("put %s: %w", key, err))
			return
		}
		rec.sample(latWrite, time.Since(t0))
		rec.done(0)
	case opGet:
		val, _, err := nd.Get(key)
		lay.end(ts, spanGet, 0)
		if err != nil {
			rec.fail(fmt.Errorf("get %s: %w", key, err))
			return
		}
		rec.sample(latRead, time.Since(t0))
		if !bytes.HasPrefix(val, []byte(key+"|")) {
			rec.violate("get %s returned a value tagged %.12q", key, val)
			return
		}
		rec.done(len(val))
	case opLookup:
		r, err := nd.Lookup(key)
		lay.end(ts, spanLookup, 0)
		if err != nil {
			rec.fail(fmt.Errorf("lookup %s: %w", key, err))
			return
		}
		rec.sample(latRoute, time.Since(t0))
		if r.Terminal != w.owners[o.item] {
			rec.violate("lookup %s ended at %v, brute-force owner is %v", key, r.Terminal, w.owners[o.item])
			return
		}
		rec.done(0)
	}
}

// verify re-reads every key once: each must still be readable and carry
// its own tag.
func (w *kv) verify(c *cluster) error {
	return parallel(8, w.s.keys, func(i int) error {
		key := keyName(i)
		val, _, err := c.nodes[i%len(c.nodes)].Get(key)
		if err != nil {
			return fmt.Errorf("final read of %s: %w", key, err)
		}
		if !bytes.HasPrefix(val, []byte(key+"|")) {
			return fmt.Errorf("final read of %s returned a value tagged %.12q", key, val)
		}
		return nil
	})
}

// parallel runs f(0..n-1) on `workers` goroutines and returns the first
// error.
func parallel(workers, n int, f func(i int) error) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errOnce.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
