package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cycloid/internal/hashing"
	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/blob"
	"cycloid/p2p/store"
)

// Every workload's replication factor, admission cap
// (Config.MaxInflight) and flush policy. Every write goes to the WAL
// and is flushed to the OS before it is acknowledged, on the owner and
// on every replica, but not fsync'd: on a disk shared with other
// machines fsync latency measures their I/O, not this program.
const (
	replicas    = 3
	maxInflight = 64
	noFsync     = true
)

// cluster is one booted overlay. Nodes are addressed by slot; the
// membership probe replaces the node in a slot. All nodes ever started
// are kept in started, so their telemetry stays readable after they
// leave.
type cluster struct {
	s       spec
	space   ids.Space
	dataDir string
	lay     *layers // nil in untraced runs
	rng     *rand.Rand

	nodes   []*p2p.Node
	started []*p2p.Node
	taken   map[uint64]bool

	blobs []*blob.Store // one blob store per slot, once blobStores ran
}

// blobStores binds a blob store with the workload's chunk geometry to
// every live node.
func (c *cluster) blobStores(s spec) error {
	c.blobs = c.blobs[:0]
	for _, nd := range c.nodes {
		bs, err := blob.New(nd, blob.Options{ChunkSize: s.chunkSize, Window: s.window})
		if err != nil {
			return err
		}
		c.blobs = append(c.blobs, bs)
	}
	return nil
}

// nodeConfig is the configuration every node of the workload runs.
func (c *cluster) nodeConfig(id ids.CycloidID) (p2p.Config, error) {
	cfg := p2p.Config{
		Dim:             c.s.dim,
		ID:              &id,
		PooledTransport: true,
		WireCodec:       "binary",
		Replicas:        replicas,
		MaxInflight:     maxInflight,
		DataDir:         filepath.Join(c.dataDir, fmt.Sprintf("%d-%d", id.K, id.A)),
		NoFsync:         noFsync,
	}
	if c.lay != nil {
		cfg.Transport = c.lay.transport(p2p.TCP)
		ds, err := store.Open(cfg.DataDir, store.Options{NoFsync: cfg.NoFsync, Hooks: c.lay.storeHooks()})
		if err != nil {
			return cfg, err
		}
		cfg.Store = c.lay.store(ds)
	}
	return cfg, nil
}

// freshID draws an overlay ID no node of this cluster has used.
func (c *cluster) freshID() ids.CycloidID {
	for {
		v := uint64(c.rng.Int63n(int64(c.space.Size())))
		if !c.taken[v] {
			c.taken[v] = true
			return c.space.FromLinear(v)
		}
	}
}

// startNode starts a node with a fresh ID and joins it through a random
// member of the first `through` slots (all slots when 0). It returns
// the node and its Join latency.
func (c *cluster) startNode(through int) (*p2p.Node, time.Duration, error) {
	cfg, err := c.nodeConfig(c.freshID())
	if err != nil {
		return nil, 0, err
	}
	nd, err := p2p.Start(cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
		}
		return nil, 0, err
	}
	c.started = append(c.started, nd)
	if len(c.nodes) == 0 {
		return nd, 0, nil
	}
	if through == 0 || through > len(c.nodes) {
		through = len(c.nodes)
	}
	boot := c.nodes[c.rng.Intn(through)]
	ts := c.lay.begin()
	t0 := time.Now()
	err = nd.Join(boot.Addr())
	c.lay.end(ts, spanJoin, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("join %v through %v: %w", nd.ID(), boot.ID(), err)
	}
	return nd, time.Since(t0), nil
}

// bootCluster starts, joins and stabilizes the workload's overlay.
func bootCluster(s spec, dataDir string, lay *layers) (*cluster, error) {
	c := &cluster{
		s:       s,
		space:   ids.NewSpace(s.dim),
		dataDir: dataDir,
		lay:     lay,
		rng:     rand.New(rand.NewSource(layoutSeed)),
		taken:   make(map[uint64]bool),
	}
	for len(c.nodes) < s.nodes {
		nd, _, err := c.startNode(0)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot node %d: %w", len(c.nodes), err)
		}
		c.nodes = append(c.nodes, nd)
	}
	for r := 0; r < 2; r++ {
		c.stabilize()
	}
	return c, nil
}

// stabilize runs one stabilization round over every live node.
func (c *cluster) stabilize() {
	for _, nd := range c.nodes {
		nd.Stabilize()
	}
}

// stabilizeRound runs one stabilization round as a membership span and
// returns its duration.
func (c *cluster) stabilizeRound() time.Duration {
	ts := c.lay.begin()
	t0 := time.Now()
	c.stabilize()
	c.lay.end(ts, spanStabilize, 0)
	return time.Since(t0)
}

// replace swaps the node in slot for a fresh one: the old node leaves
// gracefully and the new node joins through a member of the first
// `through` slots. It returns the Leave and the Join latency.
func (c *cluster) replace(slot, through int) (leave, join time.Duration, err error) {
	victim := c.nodes[slot]
	ts := c.lay.begin()
	t0 := time.Now()
	err = victim.Leave()
	c.lay.end(ts, spanLeave, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("leave %v: %w", victim.ID(), err)
	}
	leave = time.Since(t0)
	nd, join, err := c.startNode(through)
	if err != nil {
		return leave, 0, err
	}
	c.nodes[slot] = nd
	return leave, join, nil
}

// owner is the brute-force owner of key among the live nodes: the node
// whose ID is closest to the key's point under the Cycloid distance.
func (c *cluster) owner(key string) ids.CycloidID {
	t := c.space.FromLinear(hashing.KeyString(key, c.space.Size()))
	best := c.nodes[0].ID()
	for _, nd := range c.nodes[1:] {
		if c.space.Closer(t, nd.ID(), best) {
			best = nd.ID()
		}
	}
	return best
}

// close stops every node and removes the data directories.
func (c *cluster) close() {
	for _, nd := range c.started {
		nd.Close()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}
