package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/vertexfile"
)

func newTestVStore(t *testing.T, n int, ct *diskio.Counter) *vertexfile.Store {
	t.Helper()
	recs := make([]vertexfile.Record, n)
	for i := range recs {
		recs[i] = vertexfile.Record{ID: graph.VertexID(i), Val: float64(i)}
	}
	vs, err := vertexfile.Create(filepath.Join(t.TempDir(), "v.dat"), ct, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vs.Close() })
	return vs
}

func TestPullCacheReadThrough(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 5, nil)
	before := ct.Snapshot()
	r, err := c.get(3)
	if err != nil || r.Val != 3 {
		t.Fatalf("get = %+v, %v", r, err)
	}
	d1 := ct.Snapshot().Sub(before)
	if d1.Bytes[diskio.RandRead] != vertexfile.RecordSize {
		t.Fatalf("miss should random-read one record, got %v", d1)
	}
	// Second read is a hit: no further I/O.
	if _, err := c.get(3); err != nil {
		t.Fatal(err)
	}
	d2 := ct.Snapshot().Sub(before)
	if d2.Bytes[diskio.RandRead] != vertexfile.RecordSize {
		t.Fatalf("hit did I/O: %v", d2)
	}
	hits, misses, _ := c.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestPullCacheDirtyEvictionWritesBack(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 2, nil)
	// Dirty vertex 0, then push it out with two more entries.
	r, _ := c.get(0)
	r.Val = 100
	if err := c.put(r); err != nil {
		t.Fatal(err)
	}
	before := ct.Snapshot()
	if _, err := c.get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(2); err != nil { // evicts 0 (dirty)
		t.Fatal(err)
	}
	d := ct.Snapshot().Sub(before)
	if d.Bytes[diskio.RandWrite] != vertexfile.RecordSize {
		t.Fatalf("dirty eviction should write one record, got %v", d)
	}
	got, err := vs.ReadRecord(0)
	if err != nil || got.Val != 100 {
		t.Fatalf("evicted value not persisted: %+v, %v", got, err)
	}
}

func TestPullCacheCleanEvictionIsFree(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 1, nil)
	c.get(0)
	before := ct.Snapshot()
	c.get(1) // evicts clean 0
	d := ct.Snapshot().Sub(before)
	if d.Bytes[diskio.RandWrite] != 0 {
		t.Fatalf("clean eviction wrote: %v", d)
	}
}

func TestPullCacheUnboundedNeverEvicts(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 100, &ct)
	c := newPullCache(vs, 0, nil)
	for v := 0; v < 100; v++ {
		r, err := c.get(graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		r.Val++
		if err := c.put(r); err != nil {
			t.Fatal(err)
		}
	}
	if c.resident() != 100 {
		t.Fatalf("resident = %d, want 100", c.resident())
	}
	before := ct.Snapshot()
	// Re-touch everything: all hits, no I/O.
	for v := 0; v < 100; v++ {
		if _, err := c.get(graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	if d := ct.Snapshot().Sub(before); d.Total() != 0 {
		t.Fatalf("unbounded cache re-reads did I/O: %v", d)
	}
}

func TestPullCacheFlushPersistsDirty(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	for _, capacity := range []int{0, 4} {
		c := newPullCache(vs, capacity, nil)
		r, _ := c.get(5)
		r.Val = 55
		c.put(r)
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
		got, _ := vs.ReadRecord(5)
		if got.Val != 55 {
			t.Fatalf("capacity %d: flush did not persist (val %g)", capacity, got.Val)
		}
	}
}

// TestPullCacheGetPutEviction: records put into a full cache push out the
// least recently used one, which is written back because it is dirty; the
// survivors are hits without I/O, and the tallies count each.
func TestPullCacheGetPutEviction(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 2, nil)
	before := ct.Snapshot()
	for _, r := range []vertexfile.Record{{ID: 1, Val: 10}, {ID: 2, Val: 20}} {
		if err := c.put(r); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := c.get(1); err != nil || r.Val != 10 {
		t.Fatalf("get(1) = %+v, %v", r, err)
	}
	// 1 is now the most recently used; inserting 3 evicts 2.
	if err := c.put(vertexfile.Record{ID: 3, Val: 30}); err != nil {
		t.Fatal(err)
	}
	if d := ct.Snapshot().Sub(before); d.Bytes[diskio.RandWrite] != vertexfile.RecordSize || d.Bytes[diskio.RandRead] != 0 {
		t.Fatalf("evicting dirty 2 should write one record and read none, got %v", d)
	}
	if got, err := vs.ReadRecord(2); err != nil || got.Val != 20 {
		t.Fatalf("evicted record not written back: %+v, %v", got, err)
	}
	mid := ct.Snapshot()
	for _, want := range []vertexfile.Record{{ID: 1, Val: 10}, {ID: 3, Val: 30}} {
		if r, err := c.get(want.ID); err != nil || r.Val != want.Val {
			t.Fatalf("get(%d) = %+v, %v; want value %g", want.ID, r, err, want.Val)
		}
	}
	if d := ct.Snapshot().Sub(mid); d.Total() != 0 {
		t.Fatalf("1 and 3 should be resident; reading them did I/O: %v", d)
	}
	if hits, misses, evictions := c.stats(); hits != 3 || misses != 3 || evictions != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d evictions; want 3, 3, 1", hits, misses, evictions)
	}
	if c.resident() != 2 {
		t.Fatalf("resident = %d, want 2", c.resident())
	}
}

// TestPullCacheEvictsLeastRecentlyUsed: a hit promotes a record, so a full
// cache evicts the least recently used record, not the least recently
// inserted one.
func TestPullCacheEvictsLeastRecentlyUsed(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 3, nil)
	for _, v := range []graph.VertexID{1, 2, 3, 1, 4} { // the hit on 1 leaves 2 oldest
		if _, err := c.get(v); err != nil {
			t.Fatal(err)
		}
	}
	before := ct.Snapshot()
	if _, err := c.get(1); err != nil {
		t.Fatal(err)
	}
	if d := ct.Snapshot().Sub(before); d.Total() != 0 {
		t.Fatalf("vertex 1 was used last-but-one and should be resident; reading it did I/O: %v", d)
	}
	if _, err := c.get(2); err != nil {
		t.Fatal(err)
	}
	if d := ct.Snapshot().Sub(before); d.Bytes[diskio.RandRead] != vertexfile.RecordSize {
		t.Fatalf("vertex 2 was least recently used and should have been evicted; got %v", d)
	}
	if hits, misses, _ := c.stats(); hits != 2 || misses != 5 {
		t.Fatalf("stats = %d hits, %d misses; want 2, 5", hits, misses)
	}
}

// TestPullCachePutResidentMarksDirty: putting a resident record again
// updates it in place without I/O, and the update reaches the store when
// the cache is flushed.
func TestPullCachePutResidentMarksDirty(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 10, &ct)
	c := newPullCache(vs, 2, nil)
	r, err := c.get(4)
	if err != nil {
		t.Fatal(err)
	}
	before := ct.Snapshot()
	for _, val := range []float64{40, 41} {
		r.Val = val
		if err := c.put(r); err != nil {
			t.Fatal(err)
		}
	}
	if d := ct.Snapshot().Sub(before); d.Total() != 0 {
		t.Fatalf("put of a resident record did I/O: %v", d)
	}
	if got, _ := c.get(4); c.resident() != 1 || got.Val != 41 {
		t.Fatalf("resident = %d, value %g; want 1 record holding 41", c.resident(), got.Val)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if d := ct.Snapshot().Sub(before); d.Bytes[diskio.RandWrite] != vertexfile.RecordSize {
		t.Fatalf("flush should write the one dirty record back, got %v", d)
	}
	if got, _ := vs.ReadRecord(4); got.Val != 41 {
		t.Fatalf("store holds %g after flush, want 41", got.Val)
	}
}

// TestPullCacheNeverExceedsCapacity drives random gets and puts through a
// small cache and checks its resident set after each.
func TestPullCacheNeverExceedsCapacity(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 100, &ct)
	c := newPullCache(vs, 16, nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := graph.VertexID(rng.Intn(100))
		var err error
		if i%2 == 0 {
			_, err = c.get(v)
		} else {
			err = c.put(vertexfile.Record{ID: v, Val: float64(i)})
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.resident() > 16 {
			t.Fatalf("cache grew to %d records", c.resident())
		}
	}
}

// TestPullCacheFlushWritesInVertexOrder: whatever order records were
// dirtied in, flush writes them back by ascending vertex id, so a
// checkpoint's device bytes do not depend on the access order.
func TestPullCacheFlushWritesInVertexOrder(t *testing.T) {
	var ct diskio.Counter
	vs := newTestVStore(t, 1000, &ct)
	for _, capacity := range []int{0, 600} {
		var devs []int64
		for _, order := range [][]graph.VertexID{{900, 3, 500, 128, 7, 640}, {7, 128, 640, 3, 900, 500}} {
			c := newPullCache(vs, capacity, nil)
			for _, v := range order {
				if err := c.put(vertexfile.Record{ID: v, Val: float64(v)}); err != nil {
					t.Fatal(err)
				}
			}
			before := ct.Snapshot()
			if err := c.flush(); err != nil {
				t.Fatal(err)
			}
			devs = append(devs, ct.Snapshot().Sub(before).DevTotal())
		}
		if devs[0] != devs[1] {
			t.Fatalf("capacity %d: flush device bytes %d and %d depend on the order records were dirtied",
				capacity, devs[0], devs[1])
		}
	}
}

func TestPullCacheReadBcastParity(t *testing.T) {
	var ct diskio.Counter
	recs := []vertexfile.Record{{ID: 0, Bcast: [2]float64{7, 9}}}
	vs, err := vertexfile.Create(filepath.Join(t.TempDir(), "v"), &ct, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	c := newPullCache(vs, 2, nil)
	if v, _ := c.readBcast(0, 0); v != 7 {
		t.Fatalf("parity 0 = %g", v)
	}
	if v, _ := c.readBcast(0, 1); v != 9 {
		t.Fatalf("parity 1 = %g", v)
	}
}

// TestTable5CacheCliff reproduces Appendix F's finding in miniature: with
// the cache above the working set, steady-state vertex I/O vanishes; just
// below it, cyclic scans defeat LRU and every superstep thrashes.
func TestTable5CacheCliff(t *testing.T) {
	g := graph.GenUniform(1000, 15000, 50)
	prog := algo.NewPageRank(0.85)
	base := Config{Workers: 2, MsgBuf: 100, MaxSteps: 4}

	big := base
	big.VertexCache = 0 // unbounded: ext-edge
	small := base
	small.VertexCache = 400 // below the 500-vertex per-worker working set

	rBig, err := Run(g, prog, big, Pull)
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := Run(g, prog, small, Pull)
	if err != nil {
		t.Fatal(err)
	}
	vBig := rBig.IO.Bytes[diskio.RandRead] + rBig.IO.Bytes[diskio.RandWrite]
	vSmall := rSmall.IO.Bytes[diskio.RandRead] + rSmall.IO.Bytes[diskio.RandWrite]
	if vSmall < 5*vBig {
		t.Fatalf("cache cliff missing: small-cache random I/O %d, unbounded %d", vSmall, vBig)
	}
}

// pullChargeLines renders every charge one pull job makes: the value
// bits, and per superstep the class-tagged disk bytes, ops and device
// bytes, the simulated seconds, peak memory and wire bytes.
func pullChargeLines(label string, res *metrics.JobResult) []string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	out := []string{fmt.Sprintf("%s values=%016x steps=%d", label, h.Sum64(), len(res.Steps))}
	for _, s := range res.Steps {
		out = append(out, fmt.Sprintf("%s step=%d bytes=%v ops=%v dev=%v sim=%016x mem=%d net=%d",
			label, s.Step, s.IO.Bytes, s.IO.Ops, s.IO.Dev, math.Float64bits(s.SimSeconds), s.MemBytes, s.NetBytes))
	}
	return out
}

// TestPullChargesPinned pins the pull baseline's charges to a file
// generated before its vertex cache became one LRU (go test
// ./internal/core -run TestPullChargesPinned -update-golden) and committed
// unmodified: PageRank and SSSP on one worker, where no remote gather
// reorders cache accesses, with an unbounded cache, one below the
// 1500-vertex working set and one above it.
func TestPullChargesPinned(t *testing.T) {
	g := graph.GenRMAT(1500, 15000, 0.57, 0.19, 0.19, 4242)
	programs := []struct {
		name string
		mk   func() algo.Program
	}{
		{"pagerank", func() algo.Program { return algo.NewPageRank(0.85) }},
		{"sssp", func() algo.Program { return algo.NewSSSP(0) }},
	}
	var lines []string
	for _, p := range programs {
		for _, capacity := range []int{0, 1000, 2000} {
			cfg := Config{Workers: 1, MsgBuf: 150, MaxSteps: 9, VertexCache: capacity}
			label := fmt.Sprintf("%s/cache%d", p.name, capacity)
			lines = append(lines, pullChargeLines(label, runOne(t, g, p.mk(), cfg, Pull))...)
		}
	}
	checkGolden(t, "golden_pull.txt", lines)
}

// TestPullCheckpointRunToRunIdentity holds a checkpointing pull job to one
// reading run after run: a checkpoint writes the cache's dirty records back
// inside its I/O window, and page-granular device bytes, and with them
// CheckpointSimSeconds and SimSeconds, depend on the order it writes them.
func TestPullCheckpointRunToRunIdentity(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 71)
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers, MsgBuf: 100, MaxSteps: 8, Parallelism: 2,
			Recovery: "checkpoint", CheckpointEvery: 2}
		first := runOne(t, g, algo.NewPageRank(0.85), cfg, Pull)
		if first.Checkpoints == 0 || first.CheckpointIO.DevTotal() == 0 {
			t.Fatalf("workers=%d: %d checkpoints, %d device bytes; the test needs both", workers,
				first.Checkpoints, first.CheckpointIO.DevTotal())
		}
		for run := 2; run <= 3; run++ {
			res := runOne(t, g, algo.NewPageRank(0.85), cfg, Pull)
			if res.CheckpointIO != first.CheckpointIO || res.CheckpointSimSeconds != first.CheckpointSimSeconds ||
				res.SimSeconds != first.SimSeconds {
				t.Fatalf("workers=%d run %d: checkpoint io %+v (dev %d) ckpt-sim %v sim %v; run 1: %+v (dev %d) %v %v",
					workers, run, res.CheckpointIO, res.CheckpointIO.DevTotal(), res.CheckpointSimSeconds, res.SimSeconds,
					first.CheckpointIO, first.CheckpointIO.DevTotal(), first.CheckpointSimSeconds, first.SimSeconds)
			}
		}
	}
}

func TestSenderCombineSavesBytes(t *testing.T) {
	// Many edges toward few destinations with a generous threshold lets
	// the sender-side combiner collapse traffic (pushM+com, Fig. 26).
	b := graph.NewBuilder(100)
	for src := 10; src < 90; src++ {
		for dst := 0; dst < 5; dst++ {
			b.AddEdge(graph.VertexID(src), graph.VertexID(dst), 1)
		}
	}
	g := b.Build()
	prog := algo.NewPageRank(0.85)
	cfg := Config{Workers: 2, MsgBuf: 50, MaxSteps: 3}
	plain, err := Run(g, prog, cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SenderCombine = true
	com, err := Run(g, prog, cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if com.NetBytes >= plain.NetBytes {
		t.Fatalf("sender combining did not reduce traffic: %d vs %d", com.NetBytes, plain.NetBytes)
	}
	for v := range plain.Values {
		if !almostEqual(plain.Values[v], com.Values[v]) {
			t.Fatalf("sender combining changed results at vertex %d", v)
		}
	}
}
