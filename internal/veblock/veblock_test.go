package veblock

import (
	"path/filepath"
	"testing"
	"testing/quick"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

func mkLayout(t *testing.T, n, workers, blocksPer int) *Layout {
	t.Helper()
	l, err := UniformLayout(graph.RangePartition(n, workers), blocksPer)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutGeometry(t *testing.T) {
	l := mkLayout(t, 100, 4, 3)
	if l.NumBlocks() != 12 {
		t.Fatalf("NumBlocks = %d, want 12", l.NumBlocks())
	}
	// Blocks are contiguous and cover [0,100).
	prev := graph.VertexID(0)
	for _, b := range l.Blocks {
		if b.Lo != prev {
			t.Fatalf("gap before block at %d", b.Lo)
		}
		prev = b.Hi
	}
	if prev != 100 {
		t.Fatalf("blocks end at %d, want 100", prev)
	}
	for v := 0; v < 100; v++ {
		b := l.BlockOf(graph.VertexID(v))
		if b < 0 || !l.Blocks[b].Contains(graph.VertexID(v)) {
			t.Fatalf("BlockOf(%d) = %d wrong", v, b)
		}
		w := l.OwnerOfBlock(b)
		if lo, hi := l.WorkerBlocks(w); b < lo || b >= hi {
			t.Fatalf("OwnerOfBlock(%d) = %d inconsistent", b, w)
		}
	}
	if l.BlockOf(100) != -1 {
		t.Fatal("BlockOf out of range should be -1")
	}
}

func TestBlockCountRules(t *testing.T) {
	// Eq (5): Vi = (2n + nT)/B rounded up.
	if got := BlocksCombinable(1000, 5, 1000); got != 7 {
		t.Fatalf("BlocksCombinable = %d, want 7", got)
	}
	// Eq (6): Vi = sum-in-degree / B rounded up.
	if got := BlocksConcatOnly(10500, 1000, 100000); got != 11 {
		t.Fatalf("BlocksConcatOnly = %d, want 11", got)
	}
	// Degenerate buffers yield one block; counts never exceed n.
	if got := BlocksCombinable(10, 5, 0); got != 1 {
		t.Fatalf("zero buffer: %d, want 1", got)
	}
	if got := BlocksCombinable(3, 50, 1); got != 3 {
		t.Fatalf("clamp to n: %d, want 3", got)
	}
}

func buildAll(t *testing.T, g *graph.Graph, l *Layout, workers int) ([]*Store, *diskio.Counter) {
	t.Helper()
	var ct diskio.Counter
	dir := t.TempDir()
	stores := make([]*Store, workers)
	for w := 0; w < workers; w++ {
		s, err := Build(filepath.Join(dir, "ve-w"+string(rune('0'+w))+".dat"), &ct, g, l, w, nil)
		if err == nil {
			stores[w] = s
			t.Cleanup(func() { s.Close() })
			continue
		}
		t.Fatal(err)
	}
	return stores, &ct
}

func TestBuildCoversEveryEdgeExactlyOnce(t *testing.T) {
	g := graph.GenRMAT(256, 2048, 0.57, 0.19, 0.19, 7)
	l := mkLayout(t, 256, 3, 4)
	stores, _ := buildAll(t, g, l, 3)
	seen := map[[2]graph.VertexID]int{}
	for _, s := range stores {
		for j := 0; j < s.LocalBlocks(); j++ {
			for i := 0; i < l.NumBlocks(); i++ {
				_, err := s.ScanEblock(j, i, func(src graph.VertexID, edges []graph.Half) error {
					jb := l.Blocks[s.FirstBlock()+j]
					if !jb.Contains(src) {
						t.Fatalf("fragment src %d outside its block [%d,%d)", src, jb.Lo, jb.Hi)
					}
					for _, e := range edges {
						if l.BlockOf(e.Dst) != i {
							t.Fatalf("edge (%d,%d) in wrong Eblock %d", src, e.Dst, i)
						}
						seen[[2]graph.VertexID{src, e.Dst}]++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != g.NumEdges() {
		t.Fatalf("scanned %d edges, graph has %d", total, g.NumEdges())
	}
	for v := 0; v < g.NumVertices; v++ {
		for _, h := range g.OutEdges(graph.VertexID(v)) {
			if seen[[2]graph.VertexID{graph.VertexID(v), h.Dst}] == 0 {
				t.Fatalf("edge (%d,%d) missing from VE-BLOCK", v, h.Dst)
			}
		}
	}
}

func TestMetadataMatchesGraph(t *testing.T) {
	g := graph.GenUniform(120, 600, 5)
	l := mkLayout(t, 120, 2, 3)
	stores, _ := buildAll(t, g, l, 2)
	var edgeSum int64
	for _, s := range stores {
		for j := 0; j < s.LocalBlocks(); j++ {
			m := s.Meta(j)
			// Bitmap consistency: bit set iff Eblock non-empty.
			for i := 0; i < l.NumBlocks(); i++ {
				_, _, edges := s.EblockSize(j, i)
				if (edges > 0) != m.Bitmap.Get(i) {
					t.Fatalf("bitmap bit %d disagrees with Eblock size", i)
				}
				edgeSum += int64(edges)
			}
		}
	}
	if edgeSum != int64(g.NumEdges()) {
		t.Fatalf("Eblock edges sum to %d, want |E| = %d", edgeSum, g.NumEdges())
	}
}

func TestFragmentClusteringIsTight(t *testing.T) {
	// A vertex with all edges into one destination block must produce a
	// single fragment in that block.
	b := graph.NewBuilder(20)
	for d := 10; d < 15; d++ {
		b.AddEdge(0, graph.VertexID(d), 1)
	}
	g := b.Build()
	l := mkLayout(t, 20, 1, 2) // blocks [0,10) and [10,20)
	stores, _ := buildAll(t, g, l, 1)
	s := stores[0]
	_, frags, edges := s.EblockSize(0, 1)
	if frags != 1 || edges != 5 {
		t.Fatalf("g_01 has %d fragments/%d edges, want 1/5", frags, edges)
	}
	if s.Fragments() != 1 {
		t.Fatalf("total fragments = %d, want 1", s.Fragments())
	}
}

// TestTheorem1FragmentsProportionalToV checks Theorem 1 empirically: the
// expected fragment count grows monotonically with the number of Vblocks V
// and is bounded by min(|E|, Σ_u min(deg u, V)).
func TestTheorem1FragmentsProportionalToV(t *testing.T) {
	g := graph.GenRMAT(512, 8192, 0.57, 0.19, 0.19, 13)
	prev := int64(0)
	for _, blocksPer := range []int{1, 2, 4, 8, 16} {
		l := mkLayout(t, 512, 2, blocksPer)
		stores, _ := buildAll(t, g, l, 2)
		var f int64
		for _, s := range stores {
			f += s.Fragments()
		}
		if f < prev {
			t.Fatalf("fragments decreased from %d to %d when V grew to %d",
				prev, f, l.NumBlocks())
		}
		if f > int64(g.NumEdges()) {
			t.Fatalf("fragments %d exceed edge count %d", f, g.NumEdges())
		}
		prev = f
	}
}

func TestScanStatsAccounting(t *testing.T) {
	g := graph.GenUniform(64, 512, 9)
	l := mkLayout(t, 64, 1, 2)
	stores, ct := buildAll(t, g, l, 1)
	s := stores[0]
	before := ct.Snapshot()
	var st ScanStats
	for j := 0; j < s.LocalBlocks(); j++ {
		for i := 0; i < l.NumBlocks(); i++ {
			one, err := s.ScanEblock(j, i, func(graph.VertexID, []graph.Half) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			st.FragBytes += one.FragBytes
			st.EdgeBytes += one.EdgeBytes
			st.Fragments += one.Fragments
		}
	}
	if st.EdgeBytes != int64(g.NumEdges())*edgeSize {
		t.Fatalf("edge bytes %d, want %d", st.EdgeBytes, g.NumEdges()*edgeSize)
	}
	if int64(st.Fragments) != s.Fragments() {
		t.Fatalf("scanned %d fragments, store reports %d", st.Fragments, s.Fragments())
	}
	d := ct.Snapshot().Sub(before)
	if d.Bytes[diskio.SeqRead] != st.FragBytes+st.EdgeBytes {
		t.Fatalf("SeqRead %d, want %d", d.Bytes[diskio.SeqRead], st.FragBytes+st.EdgeBytes)
	}
}

func TestScanEblockRangeChecks(t *testing.T) {
	g := graph.GenUniform(32, 64, 1)
	l := mkLayout(t, 32, 1, 2)
	stores, _ := buildAll(t, g, l, 1)
	if _, err := stores[0].ScanEblock(5, 0, nil); err == nil {
		t.Fatal("out-of-range local block should fail")
	}
	if _, err := stores[0].ScanEblock(0, 99, nil); err == nil {
		t.Fatal("out-of-range destination block should fail")
	}
}

func TestLayoutBlockOfProperty(t *testing.T) {
	f := func(nRaw uint16, wRaw, bRaw uint8) bool {
		n := int(nRaw%2000) + 10
		workers := int(wRaw%8) + 1
		per := int(bRaw%6) + 1
		l, err := UniformLayout(graph.RangePartition(n, workers), per)
		if err != nil {
			return false
		}
		// Every vertex maps to exactly one block that contains it.
		for v := 0; v < n; v += 1 + n/50 {
			b := l.BlockOf(graph.VertexID(v))
			if b < 0 || !l.Blocks[b].Contains(graph.VertexID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaMemBytesPositive(t *testing.T) {
	g := graph.GenUniform(64, 256, 2)
	l := mkLayout(t, 64, 1, 4)
	stores, _ := buildAll(t, g, l, 1)
	if stores[0].MetaMemBytes() <= 0 {
		t.Fatal("MetaMemBytes should be positive")
	}
}

// TestBFSReorderingReducesFragments validates the paper's footnote 1 in
// action: renumbering a locality-rich graph in BFS order clusters each
// vertex's out-edges into fewer destination blocks, cutting the fragment
// count (and with it IO(F^t)) relative to a scrambled numbering.
func TestBFSReorderingReducesFragments(t *testing.T) {
	base := graph.GenWeb(1024, 8192, 32, 0.85, 81)
	// Scramble: reverse the id space to destroy host locality.
	scramble := make([]graph.VertexID, base.NumVertices)
	for i := range scramble {
		scramble[i] = graph.VertexID(base.NumVertices - 1 - i*7%base.NumVertices)
	}
	// The naive scramble above is not a permutation for all n; build a
	// deterministic one instead.
	for i := range scramble {
		scramble[i] = graph.VertexID((i*797 + 13) % base.NumVertices)
	}
	if !graph.IsPermutation(scramble, base.NumVertices) {
		t.Skip("scramble constants do not form a permutation for this n")
	}
	scrambled := graph.Relabel(base, scramble)
	ordered := graph.Relabel(scrambled, graph.BFSOrder(scrambled))

	frags := func(g *graph.Graph) int64 {
		l := mkLayout(t, g.NumVertices, 2, 8)
		stores, _ := buildAll(t, g, l, 2)
		var f int64
		for _, s := range stores {
			f += s.Fragments()
		}
		return f
	}
	fs, fo := frags(scrambled), frags(ordered)
	if fo >= fs {
		t.Fatalf("BFS ordering should reduce fragments: scrambled %d, ordered %d", fs, fo)
	}
}
