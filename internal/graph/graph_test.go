package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBuildsSortedCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 1, 1)
	b.AddEdge(0, 3, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", got)
	}
	e := g.OutEdges(0)
	if e[0].Dst != 1 || e[1].Dst != 3 {
		t.Fatalf("OutEdges(0) = %v, want dsts 1,3", e)
	}
	if got := g.OutDegree(1); got != 0 {
		t.Fatalf("OutDegree(1) = %d, want 0", got)
	}
}

func TestBuilderDropsSelfLoopsAndOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 1) // self-loop
	b.AddEdge(5, 0, 1) // src out of range
	b.AddEdge(0, 9, 1) // dst out of range
	b.AddEdge(0, 2, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenRMAT(256, 1024, 0.57, 0.19, 0.19, 42)
	b := GenRMAT(256, 1024, 0.57, 0.19, 0.19, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("RMAT not deterministic: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatalf("RMAT not deterministic at edge %d", i)
		}
	}
	c := GenWeb(256, 1024, 16, 0.8, 42)
	d := GenWeb(256, 1024, 16, 0.8, 42)
	if c.NumEdges() != d.NumEdges() {
		t.Fatal("Web generator not deterministic")
	}
}

func TestRMATIsSkewedWebIsLocal(t *testing.T) {
	rmat := GenRMAT(2048, 16384, 0.6, 0.15, 0.15, 1)
	uni := GenUniform(2048, 16384, 1)
	sr, su := Stats(rmat), Stats(uni)
	if sr.Gini <= su.Gini {
		t.Fatalf("RMAT gini %.3f should exceed uniform gini %.3f", sr.Gini, su.Gini)
	}
	if sr.Max <= su.Max {
		t.Fatalf("RMAT max degree %d should exceed uniform max %d", sr.Max, su.Max)
	}
	web := GenWeb(2048, 16384, 32, 0.8, 1)
	intra := 0
	for v := 0; v < web.NumVertices; v++ {
		for _, h := range web.OutEdges(VertexID(v)) {
			if v/32 == int(h.Dst)/32 {
				intra++
			}
		}
	}
	if frac := float64(intra) / float64(web.NumEdges()); frac < 0.6 {
		t.Fatalf("web graph intra-host fraction %.2f, want >= 0.6", frac)
	}
}

func TestGenChainDiameter(t *testing.T) {
	g := GenChain(50, 0, 3)
	if g.NumEdges() != 49 {
		t.Fatalf("chain edges = %d, want 49", g.NumEdges())
	}
	for v := 0; v+1 < 50; v++ {
		e := g.OutEdges(VertexID(v))
		if len(e) != 1 || e[0].Dst != VertexID(v+1) {
			t.Fatalf("vertex %d edges %v", v, e)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GenRMAT(128, 512, 0.57, 0.19, 0.19, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != g.NumVertices || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			got.NumVertices, got.NumEdges(), g.NumVertices, g.NumEdges())
	}
	for i := range g.Adj {
		if got.Adj[i].Dst != g.Adj[i].Dst {
			t.Fatalf("edge %d dst %d vs %d", i, got.Adj[i].Dst, g.Adj[i].Dst)
		}
	}
}

// WriteEdgeList's bytes are fmt's "%d %d %g" lines — which ingest and the
// dataset files were written against — on integral, fractional, tiny,
// huge and non-finite weights alike.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBuilder(300)
	special := []float32{1, 0, -2, 0.1, 1.5, 1e-7, 123456789, 1e21, 16777216, 0.000123,
		float32(math.Inf(1)), float32(math.NaN()), math.MaxFloat32, math.SmallestNonzeroFloat32}
	for i := 0; i < 4000; i++ {
		w := special[i%len(special)]
		switch rng.Intn(3) {
		case 0:
			w = rng.Float32() * 100
		case 1:
			w = float32(rng.Intn(1000))
		}
		b.AddEdge(VertexID(rng.Intn(300)), VertexID(rng.Intn(300)), w)
	}
	g := b.Build()
	var want bytes.Buffer
	fmt.Fprintf(&want, "# vertices %d\n", g.NumVertices)
	for v := 0; v < g.NumVertices; v++ {
		for _, h := range g.OutEdges(VertexID(v)) {
			fmt.Fprintf(&want, "%d %d %g\n", v, h.Dst, h.Weight)
		}
	}
	var got bytes.Buffer
	if err := WriteEdgeList(&got, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d: wrote %q, fmt writes %q", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("wrote %d bytes, fmt writes %d", got.Len(), want.Len())
	}
}

func TestEdgeListRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"1\n", "a b\n", "1 2 x\n"} {
		if _, err := ReadEdgeList(bytes.NewReader([]byte(bad))); err == nil {
			t.Fatalf("ReadEdgeList(%q) succeeded, want error", bad)
		}
	}
}

func TestEdgeListDefaultWeight(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewReader([]byte("0 1\n1 2\n")))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d vertices / %d edges", g.NumVertices, g.NumEdges())
	}
	if w := g.OutEdges(0)[0].Weight; w != 1 {
		t.Fatalf("default weight = %g, want 1", w)
	}
}

func TestSaveLoadEdgeList(t *testing.T) {
	g := GenUniform(64, 256, 9)
	path := t.TempDir() + "/g.txt"
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", got.NumEdges(), g.NumEdges())
	}
}

func TestRangePartitionCoversAllVertices(t *testing.T) {
	f := func(nRaw, tRaw uint16) bool {
		n := int(nRaw%5000) + 1
		tw := int(tRaw%31) + 1
		parts := RangePartition(n, tw)
		if len(parts) != tw {
			return false
		}
		total := 0
		prev := VertexID(0)
		for i, p := range parts {
			if p.Lo != prev {
				return false
			}
			if p.Worker != i {
				return false
			}
			total += p.Len()
			prev = p.Hi
		}
		if total != n || prev != VertexID(n) {
			return false
		}
		// Balance: sizes differ by at most 1.
		minLen, maxLen := parts[0].Len(), parts[0].Len()
		for _, p := range parts {
			if p.Len() < minLen {
				minLen = p.Len()
			}
			if p.Len() > maxLen {
				maxLen = p.Len()
			}
		}
		return maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOfAgreesWithContains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := RangePartition(1000, 7)
	for i := 0; i < 500; i++ {
		v := VertexID(rng.Intn(1000))
		w := OwnerOf(parts, v)
		if w < 0 || !parts[w].Contains(v) {
			t.Fatalf("OwnerOf(%d) = %d but partition does not contain it", v, w)
		}
	}
	if OwnerOf(parts, 1000) != -1 {
		t.Fatal("OwnerOf(out of range) should be -1")
	}
}

func TestBlockRangesSubdivide(t *testing.T) {
	p := Partition{Worker: 2, Lo: 100, Hi: 200}
	blocks := BlockRanges(p, 7)
	if len(blocks) != 7 {
		t.Fatalf("got %d blocks, want 7", len(blocks))
	}
	total := 0
	prev := p.Lo
	for _, b := range blocks {
		if b.Lo != prev {
			t.Fatalf("gap at %d", b.Lo)
		}
		if b.Worker != 2 {
			t.Fatalf("worker = %d, want 2", b.Worker)
		}
		total += b.Len()
		prev = b.Hi
	}
	if total != 100 || prev != 200 {
		t.Fatalf("blocks cover %d vertices ending at %d", total, prev)
	}
}

func TestBlockRangesMoreBlocksThanVertices(t *testing.T) {
	p := Partition{Lo: 0, Hi: 3}
	blocks := BlockRanges(p, 10)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want clamped 3", len(blocks))
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 6 {
		t.Fatalf("want the paper's 6 datasets, got %d", len(Datasets))
	}
	for _, d := range Datasets {
		g := d.GenerateCached(0.1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		avg := g.AvgDegree()
		if avg < d.AvgDegree*0.5 || avg > d.AvgDegree*1.5 {
			t.Fatalf("%s: avg degree %.1f too far from target %.1f", d.Name, avg, d.AvgDegree)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("DatasetByName should fail for unknown names")
	}
	d, err := DatasetByName("twi")
	if err != nil || d.Name != "twi" {
		t.Fatalf("DatasetByName(twi) = %v, %v", d, err)
	}
}

func TestGenerateCachedReturnsSameGraph(t *testing.T) {
	d := Datasets[0]
	a := d.GenerateCached(0.1)
	b := d.GenerateCached(0.1)
	if a != b {
		t.Fatal("GenerateCached should return the cached pointer")
	}
}

func TestStatsOnEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	s := Stats(g)
	if s.Avg != 0 || s.Max != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}
