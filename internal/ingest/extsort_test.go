package ingest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/veblock"
)

// phaseBRecs keys g's edges as mergeA feeds phase B: in phase A's
// (src, dst, w) order, re-keyed to (owner, dstBlock, src, dst, w).
func phaseBRecs(t *testing.T, g *graph.Graph, workers, blocksPer int) []rec {
	t.Helper()
	parts := graph.RangePartition(g.NumVertices, workers)
	bp := make([]int, workers)
	for i := range bp {
		bp[i] = blocksPer
	}
	layout, err := veblock.NewLayout(parts, bp)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	for v := 0; v < g.NumVertices; v++ {
		for _, h := range g.OutEdges(graph.VertexID(v)) {
			recs = append(recs, rec{0, 0, uint32(v), uint32(h.Dst), math.Float32bits(h.Weight)})
		}
	}
	sortRecs(recs)
	for i := range recs {
		recs[i].a = uint32(graph.OwnerOf(parts, graph.VertexID(recs[i].src)))
		recs[i].b = uint32(layout.BlockOf(graph.VertexID(recs[i].dst)))
	}
	return recs
}

func sortedCopy(recs []rec) []rec {
	out := slices.Clone(recs)
	sortRecs(out)
	return out
}

func readRun(t *testing.T, path string) []rec {
	t.Helper()
	rr, err := openRun(path, &diskio.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	var out []rec
	for {
		r, ok, err := rr.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestPhaseBRunOrderEqualsSort pins phase B's bucketed runs to the
// comparison sort they replace: every spilled run and the in-memory tail
// handed to the merge hold exactly sortRecs' order of the same records,
// at a tiny, the benchmark's 4 MiB and an unlimited budget, on an R-MAT
// multigraph whose equal (src, dst) pairs carry different weights.
func TestPhaseBRunOrderEqualsSort(t *testing.T) {
	g := graph.GenRMAT(20000, 300000, 0.57, 0.19, 0.19, 7)
	recs := phaseBRecs(t, g, 2, 20)
	for _, budget := range []int64{16 << 10, 4 << 20, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			s := newSorter(t.TempDir(), "b", &diskio.Counter{}, codec.None, budget)
			s.presorted = true
			for _, r := range recs {
				if err := s.add(r); err != nil {
					t.Fatal(err)
				}
			}
			chunk, wantRuns := s.capRecs, 0
			if chunk > 0 {
				wantRuns = len(recs) / chunk
			}
			if len(s.runs) != wantRuns {
				t.Fatalf("%d runs, want %d", len(s.runs), wantRuns)
			}
			for i, path := range s.runs {
				in := recs[i*chunk : (i+1)*chunk]
				if got := readRun(t, path); !slices.Equal(got, sortedCopy(in)) {
					t.Fatalf("run %d is not in sortRecs order", i)
				}
				if !bucketRecs(slices.Clone(in)) {
					t.Fatalf("run %d was not bucketed", i)
				}
			}
			tail := recs[len(s.runs)*chunk:]
			it, err := s.finish()
			if err != nil {
				t.Fatal(err)
			}
			defer it.close()
			if !slices.Equal(it.mem, sortedCopy(tail)) {
				t.Fatal("in-memory tail is not in sortRecs order")
			}
			for i, want := range sortedCopy(recs) {
				r, ok, err := it.next()
				if err != nil || !ok || r != want {
					t.Fatalf("merged record %d = %v (%v, %v), want %v", i, r, ok, err, want)
				}
			}
		})
	}
}

// TestBucketRecsRefusesUnsortedInput checks the precondition guard:
// records out of phase-A order, or with a falling, are left untouched
// for the comparison sort.
func TestBucketRecsRefusesUnsortedInput(t *testing.T) {
	recs := phaseBRecs(t, graph.GenUniform(500, 5000, 3), 3, 4)
	for name, mutate := range map[string]func([]rec){
		"swapped":   func(r []rec) { r[10], r[11] = r[11], r[10] },
		"shuffled":  func(r []rec) { rand.New(rand.NewSource(1)).Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] }) },
		"a-falls":   func(r []rec) { r[len(r)-1].a = 0 },
		"w-reverse": func(r []rec) { r[0], r[1] = rec{0, 0, 1, 2, 9}, rec{0, 0, 1, 2, 8} },
	} {
		in := slices.Clone(recs)
		mutate(in)
		before := slices.Clone(in)
		if bucketRecs(in) {
			t.Errorf("%s: bucketed input that breaks the precondition", name)
		}
		if !slices.Equal(in, before) {
			t.Errorf("%s: refused input was modified", name)
		}
	}
	if in := slices.Clone(recs); !bucketRecs(in) || !slices.Equal(in, sortedCopy(recs)) {
		t.Error("phase-B input was not bucketed into sortRecs order")
	}
}

// BenchmarkBuildFromStream is the benchmark workloads' ingest: a
// 300 k-edge R-MAT text edge list streamed into a 2-worker, 20-block
// entry under a 4 MiB budget.
func BenchmarkBuildFromStream(b *testing.B) {
	var el bytes.Buffer
	g := graph.GenRMAT(20000, 300000, 0.57, 0.19, 0.19, 7)
	if err := graph.WriteEdgeList(&el, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(el.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := Options{Dir: b.TempDir(), Workers: 2, BlocksPer: 20, Codec: codec.None, MemBudget: 4 << 20}
		if _, err := BuildFromStream(o, bytes.NewReader(el.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
