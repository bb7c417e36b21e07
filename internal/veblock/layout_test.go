package veblock

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// refImage writes worker w's Eblock image the obvious way: destination
// blocks outermost, local source blocks within, each Eblock's fragments by
// ascending source with the edges in adjacency order.
func refImage(g *graph.Graph, l *Layout, w int) []byte {
	lo, hi := l.WorkerBlocks(w)
	var img []byte
	for i := 0; i < l.NumBlocks(); i++ {
		for b := lo; b < hi; b++ {
			for u := l.Blocks[b].Lo; u < l.Blocks[b].Hi; u++ {
				var frag []byte
				for _, h := range g.OutEdges(u) {
					if l.BlockOf(h.Dst) == i {
						frag = binary.LittleEndian.AppendUint32(frag, uint32(h.Dst))
						frag = binary.LittleEndian.AppendUint32(frag, math.Float32bits(h.Weight))
					}
				}
				if len(frag) > 0 {
					img = binary.LittleEndian.AppendUint32(img, uint32(u))
					img = binary.LittleEndian.AppendUint32(img, uint32(len(frag)/edgeSize))
					img = append(img, frag...)
				}
			}
		}
	}
	return img
}

// TestLayoutDestinationMajor is the file-order contract: for every worker
// the Eblocks toward one destination block are adjacent in ascending
// source-block order, the spans tile [0, SizeBytes), the image is the
// reference image, and a store opened on the file — which never builds the
// image — has the same index.
func TestLayoutDestinationMajor(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 40 + int(seed)*37
		g := graph.GenRMAT(n, 9*n, 0.57, 0.19, 0.19, seed)
		for _, workers := range []int{1, 3} {
			for _, blocksPer := range []int{1, 4} {
				l := mkLayout(t, n, workers, blocksPer)
				for w := 0; w < workers; w++ {
					name := fmt.Sprintf("seed%d/w%d of %d/%d blocks", seed, w, workers, blocksPer)
					s, img, err := assemble(g, l, w, true)
					if err != nil {
						t.Fatal(err)
					}
					var off int64
					for i := 0; i < l.NumBlocks(); i++ {
						for j := 0; j < s.LocalBlocks(); j++ {
							sp := s.spans[j][i]
							if sp.off != off {
								t.Fatalf("%s: g(%d,%d) sits at %d, want %d: not destination-major", name, j, i, sp.off, off)
							}
							if want := int64(sp.frags)*FragAuxSize + int64(sp.edges)*edgeSize; sp.size != want {
								t.Fatalf("%s: g(%d,%d) is %d bytes for %d fragments and %d edges", name, j, i, sp.size, sp.frags, sp.edges)
							}
							off += sp.size
						}
					}
					if off != s.SizeBytes() || off != int64(len(img)) {
						t.Fatalf("%s: spans cover %d bytes, SizeBytes %d, image %d", name, off, s.SizeBytes(), len(img))
					}
					if !bytes.Equal(img, refImage(g, l, w)) {
						t.Fatalf("%s: image differs from the reference", name)
					}
					path := filepath.Join(t.TempDir(), "ve.dat")
					built, err := Build(path, &diskio.Counter{}, g, l, w, nil)
					if err != nil {
						t.Fatal(err)
					}
					built.Close()
					opened, err := Open(path, &diskio.Counter{}, g, l, w, nil)
					if err != nil {
						t.Fatal(err)
					}
					opened.Close()
					for j := range s.spans {
						for i := range s.spans[j] {
							if opened.spans[j][i] != s.spans[j][i] {
								t.Fatalf("%s: opened store has g(%d,%d) = %+v, built %+v", name, j, i, opened.spans[j][i], s.spans[j][i])
							}
						}
						if !slices.Equal(opened.Meta(j).Bitmap.Words(), s.Meta(j).Bitmap.Words()) {
							t.Fatalf("%s: opened store's bitmap x_%d differs from the built one", name, j)
						}
					}
				}
			}
		}
	}
}

// TestScanBlockEqualsScanEblocks checks the forward pass against the
// per-Eblock scans it replaces, on a file whose spans outgrow the scan
// window, with every other source block filtered out and every third
// source's edges stepped over.
func TestScanBlockEqualsScanEblocks(t *testing.T) {
	g := graph.GenRMAT(3000, 60000, 0.57, 0.19, 0.19, 3)
	l := mkLayout(t, 3000, 2, 3)
	for _, codecName := range []string{"none", "lz"} {
		cdc, err := codec.Lookup(codecName)
		if err != nil {
			t.Fatal(err)
		}
		var one, all diskio.Counter
		s, err := Build(filepath.Join(t.TempDir(), "ve.dat"), &diskio.Counter{}, g, l, 0, cdc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.SizeBytes() < 4*scanWindow {
			t.Fatalf("store of %d bytes does not outgrow the %d-byte window", s.SizeBytes(), scanWindow)
		}
		type frag struct {
			src   graph.VertexID
			edges string
		}
		var sb ScanBuf
		keep := func(src graph.VertexID) bool { return src%3 != 0 }
		for i := 0; i < l.NumBlocks(); i++ {
			var want, got []frag
			collect := func(into *[]frag) func(graph.VertexID, []graph.Half) error {
				return func(src graph.VertexID, edges []graph.Half) error {
					if keep(src) {
						*into = append(*into, frag{src, fmt.Sprint(edges)})
					}
					return nil
				}
			}
			var wantSt ScanStats
			s.SetCounter(&one)
			for j := 0; j < s.LocalBlocks(); j += 2 {
				st, err := s.ScanEblock(j, i, collect(&want))
				if err != nil {
					t.Fatal(err)
				}
				wantSt.EdgeBytes += st.EdgeBytes
				wantSt.FragBytes += st.FragBytes
				wantSt.Fragments += st.Fragments
			}
			s.SetCounter(&all)
			gotSt, err := s.ScanBlock(i, &sb, func(j int) bool { return j%2 == 0 }, keep, func(src graph.VertexID, edges []graph.Half) error {
				if !keep(src) {
					t.Fatalf("fragment of source %d reached fn past keep", src)
				}
				return collect(&got)(src, edges)
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotSt != wantSt || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: block %d: ScanBlock saw %d fragments %+v, the Eblock scans %d %+v", codecName, i, len(got), gotSt, len(want), wantSt)
			}
		}
		if one.Snapshot() != all.Snapshot() {
			t.Fatalf("%s: ScanBlock charged %+v, per-Eblock scans %+v", codecName, all.Snapshot(), one.Snapshot())
		}
	}
}

// TestScanBlockSkipReadsEveryWindow: stepping over the edges of sources
// keep rejects moves the scan through exactly the windows a full scan
// moves through — the same physical bytes, chunk lookups and chunk
// decodes — and charges and counts the same. A rejected hub's fragment
// spans whole windows, which a skip must still pass through.
func TestScanBlockSkipReadsEveryWindow(t *testing.T) {
	const hub = 1
	rmat := graph.GenRMAT(3000, 60000, 0.57, 0.19, 0.19, 4)
	b := graph.NewBuilder(rmat.NumVertices)
	for u := graph.VertexID(0); int(u) < rmat.NumVertices; u++ {
		for _, h := range rmat.OutEdges(u) {
			b.AddEdge(u, h.Dst, h.Weight)
		}
	}
	for k := 0; k < 3*scanWindow/edgeSize; k++ {
		b.AddEdge(hub, graph.VertexID(k%500), 1) // all toward block 0
	}
	g := b.Build()
	l := mkLayout(t, 3000, 2, 3)
	for _, codecName := range []string{"none", "lz"} {
		cdc, err := codec.Lookup(codecName)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(filepath.Join(t.TempDir(), "ve.dat"), &diskio.Counter{}, g, l, 0, cdc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		type pass struct {
			st               ScanStats
			io, phys         diskio.Snapshot
			lookups, decodes int64
			kept             int
		}
		scan := func(keep func(graph.VertexID) bool) pass {
			var ct, pct diskio.Counter
			ct.SetPhys(&pct)
			s.SetCounter(&ct)
			reg := obs.NewRegistry()
			s.SetMetrics(reg)
			var p pass
			var sb ScanBuf
			for i := 0; i < l.NumBlocks(); i++ {
				st, err := s.ScanBlock(i, &sb, func(int) bool { return true }, keep, func(graph.VertexID, []graph.Half) error {
					p.kept++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				p.st.EdgeBytes += st.EdgeBytes
				p.st.FragBytes += st.FragBytes
				p.st.Fragments += st.Fragments
			}
			p.io, p.phys = ct.Snapshot(), pct.Snapshot()
			p.lookups = reg.Counter("codec.chunk_lookups").Value()
			p.decodes = reg.Counter("codec.chunk_decodes").Value()
			return p
		}
		full := scan(func(graph.VertexID) bool { return true })
		some := scan(func(src graph.VertexID) bool { return src%4 == 0 && src != hub })
		if some.kept == 0 || some.kept >= full.kept {
			t.Fatalf("%s: keep admitted %d of %d fragments: the skip went untested", codecName, some.kept, full.kept)
		}
		some.kept = full.kept
		if some != full {
			t.Fatalf("%s: skipping scan %+v, full scan %+v", codecName, some, full)
		}
		if codecName == "lz" && full.decodes == 0 {
			t.Fatalf("lz: no chunk decodes counted")
		}
	}
}

func BenchmarkScanEblock(b *testing.B) {
	g := graph.GenRMAT(4000, 60000, 0.57, 0.19, 0.19, 5)
	l, err := UniformLayout(graph.RangePartition(4000, 2), 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"none", "lz"} {
		b.Run(codecName, func(b *testing.B) {
			cdc, err := codec.Lookup(codecName)
			if err != nil {
				b.Fatal(err)
			}
			s, err := Build(filepath.Join(b.TempDir(), "ve.dat"), &diskio.Counter{}, g, l, 0, cdc)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.SetBytes(s.SizeBytes())
			b.ResetTimer()
			var edges int
			for n := 0; n < b.N; n++ {
				// The order Pull-Respond reads in: one destination block at
				// a time, every local source block.
				for i := 0; i < l.NumBlocks(); i++ {
					for j := 0; j < s.LocalBlocks(); j++ {
						if _, err := s.ScanEblock(j, i, func(_ graph.VertexID, es []graph.Half) error {
							edges += len(es)
							return nil
						}); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			if edges != b.N*int(s.Edges()) {
				b.Fatalf("scanned %d edges, want %d", edges, b.N*int(s.Edges()))
			}
		})
	}
}
