package adjstore

import (
	"path/filepath"
	"slices"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

func build(t *testing.T, g *graph.Graph, p graph.Partition) (*Store, *diskio.Counter) {
	t.Helper()
	var ct diskio.Counter
	s, err := Build(filepath.Join(t.TempDir(), "adj.dat"), &ct, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, &ct
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.25)
	b.AddEdge(1, 3, 1)
	b.AddEdge(3, 0, 1)
	b.AddEdge(3, 4, 2)
	b.AddEdge(3, 5, 3)
	b.AddEdge(5, 0, 1)
	return b.Build()
}

func TestBuildAndReadEdges(t *testing.T) {
	g := testGraph(t)
	s, ct := build(t, g, graph.Partition{Lo: 0, Hi: 6})
	if s.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", s.NumEdges())
	}
	if got := ct.Bytes(diskio.SeqWrite); got != 7*edgeSize {
		t.Fatalf("build wrote %d bytes, want %d", got, 7*edgeSize)
	}
	e, err := s.Edges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 3 || e[0].Dst != 0 || e[1].Dst != 4 || e[2].Dst != 5 {
		t.Fatalf("Edges(3) = %v", e)
	}
	if e[2].Weight != 3 {
		t.Fatalf("Edges(3)[2].Weight = %g, want 3", e[2].Weight)
	}
	if d, _ := s.Degree(3); d != 3 {
		t.Fatalf("Degree(3) = %d, want 3", d)
	}
	if d, _ := s.Degree(2); d != 0 {
		t.Fatalf("Degree(2) = %d, want 0", d)
	}
	e, err = s.Edges(2, e[:0])
	if err != nil || len(e) != 0 {
		t.Fatalf("Edges(2) = %v, %v; want empty", e, err)
	}
}

func TestPartitionedStoreOnlyHoldsItsRange(t *testing.T) {
	g := testGraph(t)
	s, _ := build(t, g, graph.Partition{Lo: 3, Hi: 6})
	if s.Len() != 3 || s.Lo() != 3 {
		t.Fatalf("store covers lo=%d len=%d", s.Lo(), s.Len())
	}
	if s.NumEdges() != 4 { // edges of 3 and 5
		t.Fatalf("NumEdges = %d, want 4", s.NumEdges())
	}
	if _, err := s.Edges(0, nil); err == nil {
		t.Fatal("Edges outside partition should fail")
	}
	if _, err := s.Degree(6); err == nil {
		t.Fatal("Degree outside partition should fail")
	}
	b, err := s.EdgeBytes(3)
	if err != nil || b != 3*edgeSize {
		t.Fatalf("EdgeBytes(3) = %d, %v; want %d", b, err, 3*edgeSize)
	}
}

func TestBuildReverseHoldsInEdges(t *testing.T) {
	g := testGraph(t)
	var ct diskio.Counter
	s, err := BuildReverse(filepath.Join(t.TempDir(), "radj.dat"), &ct, g, graph.Partition{Lo: 0, Hi: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in0, err := s.Edges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 has in-edges from 3 and 5.
	if len(in0) != 2 || in0[0].Dst != 3 || in0[1].Dst != 5 {
		t.Fatalf("in-edges of 0 = %v", in0)
	}
}

func TestReadAccountedSequential(t *testing.T) {
	g := graph.GenUniform(200, 1000, 3)
	s, ct := build(t, g, graph.Partition{Lo: 0, Hi: 200})
	before := ct.Snapshot()
	var e []graph.Half
	var err error
	total := 0
	for v := 0; v < 200; v++ {
		e, err = s.Edges(graph.VertexID(v), e[:0])
		if err != nil {
			t.Fatal(err)
		}
		total += len(e)
	}
	if total != g.NumEdges() {
		t.Fatalf("scanned %d edges, want %d", total, g.NumEdges())
	}
	d := ct.Snapshot().Sub(before)
	if d.Bytes[diskio.SeqRead] != int64(g.NumEdges()*edgeSize) {
		t.Fatalf("SeqRead = %d, want %d", d.Bytes[diskio.SeqRead], g.NumEdges()*edgeSize)
	}
	if d.Bytes[diskio.RandRead] != 0 {
		t.Fatalf("RandRead = %d, want 0 (push edge reads are charged sequential)", d.Bytes[diskio.RandRead])
	}
}

// TestEdgesBufWindowedScan: reading through a PageBuf returns what the
// graph holds and charges what one read per vertex run charged — one
// sequential-read op of the run's length per vertex with edges — whether
// the scan is dense, sparse or goes backwards; and a forward scan of a
// compressed store inflates every chunk exactly once, runs that straddle a
// chunk boundary included.
func TestEdgesBufWindowedScan(t *testing.T) {
	const n = 3000
	g := graph.GenRMAT(n, 60000, 0.57, 0.19, 0.19, 9)
	part := graph.Partition{Lo: 0, Hi: n}
	for _, codecName := range []string{"none", "lz"} {
		cdc, err := codec.Lookup(codecName)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(filepath.Join(t.TempDir(), "adj.dat"), &diskio.Counter{}, g, part, cdc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		chunks := (s.SizeBytes() + codec.ChunkSize - 1) / codec.ChunkSize
		if chunks < 4 {
			t.Fatalf("store spans %d chunks: no boundary to straddle", chunks)
		}
		orders := map[string]func(i int) graph.VertexID{
			"forward":  func(i int) graph.VertexID { return graph.VertexID(i) },
			"sparse":   func(i int) graph.VertexID { return graph.VertexID(i * 37 % n) },
			"backward": func(i int) graph.VertexID { return graph.VertexID(n - 1 - i) },
		}
		for name, order := range orders {
			var ct, want diskio.Counter
			ref := diskio.NewAccountant(&want)
			reg := obs.NewRegistry()
			s.SetCounter(&ct)
			s.SetMetrics(reg)
			var pb PageBuf
			var edges []graph.Half
			for i := 0; i < n; i++ {
				v := order(i)
				if edges, err = s.EdgesBuf(v, edges[:0], &pb); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(edges, g.OutEdges(v)) {
					t.Fatalf("%s/%s: vertex %d: got %v, graph holds %v", codecName, name, v, edges, g.OutEdges(v))
				}
				if len(edges) > 0 {
					ref.ReadAtClass(int64(len(edges))*edgeSize, s.offs[v], diskio.SeqRead)
				}
			}
			if ct.Snapshot() != want.Snapshot() {
				t.Errorf("%s/%s: charged %+v, one read per run charges %+v", codecName, name, ct.Snapshot(), want.Snapshot())
			}
			if got := reg.Snapshot()["codec.chunk_decodes"]; codecName == "lz" && name == "forward" && got != chunks {
				t.Errorf("lz/forward: %d chunk decodes for %d chunks", got, chunks)
			}
		}
	}
}
