package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// parseEdgeLineOracle is ParseEdgeLine as it was written before the
// one-pass scanner: bytes.TrimSpace, bytes.IndexFunc(unicode.IsSpace)
// per field and strconv on every field. It stays here as the reference
// the scanner is fuzzed against.
func parseEdgeLineOracle(line []byte) (e Edge, vertices int, ok bool, err error) {
	text := bytes.TrimSpace(line)
	if len(text) == 0 {
		return e, 0, false, nil
	}
	if text[0] == '#' {
		var hn int
		if _, err := fmt.Sscanf(string(text), "# vertices %d", &hn); err != nil {
			hn = 0
		}
		return e, max(hn, 0), false, nil
	}
	var fields [3][]byte
	rest := text
	for i := range fields {
		end := bytes.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		fields[i] = rest[:end]
		rest = bytes.TrimLeftFunc(rest[end:], unicode.IsSpace)
	}
	if len(fields[1]) == 0 {
		return e, 0, false, fmt.Errorf("want 'src dst [weight]', got %q", string(text))
	}
	src, err := strconv.ParseUint(string(fields[0]), 10, 32)
	if err != nil {
		return e, 0, false, fmt.Errorf("bad src: %v", err)
	}
	dst, err := strconv.ParseUint(string(fields[1]), 10, 32)
	if err != nil {
		return e, 0, false, fmt.Errorf("bad dst: %v", err)
	}
	w := 1.0
	if len(fields[2]) > 0 {
		if w, err = strconv.ParseFloat(string(fields[2]), 32); err != nil {
			return e, 0, false, fmt.Errorf("bad weight: %v", err)
		}
	}
	return Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: float32(w)}, 0, true, nil
}

// checkLineAgainstOracle fails t unless ParseEdgeLine and the oracle
// agree on line in all four outputs, the weight compared by its bits.
func checkLineAgainstOracle(t *testing.T, line []byte) {
	t.Helper()
	e, n, ok, err := ParseEdgeLine(line)
	we, wn, wok, werr := parseEdgeLineOracle(line)
	if e.Src != we.Src || e.Dst != we.Dst || math.Float32bits(e.Weight) != math.Float32bits(we.Weight) {
		t.Fatalf("%q: edge %+v, oracle %+v", line, e, we)
	}
	if n != wn || ok != wok {
		t.Fatalf("%q: vertices %d ok %v, oracle %d %v", line, n, ok, wn, wok)
	}
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%q: error %v, oracle %v", line, err, werr)
	}
}

// edgeLineSeeds are lines on every branch of the scanner: non-ASCII
// white space (U+00A0, U+0085, U+2003), invalid UTF-8, CRLF, signs,
// ids and weights past the inline fast paths, non-finite and
// out-of-range weights, trailing fields.
var edgeLineSeeds = []string{
	"0 1", "0 1\n1 2\n", "# vertices 10", "# vertices 10\n0 1 2.5\n", "5 6\n# vertices 3\n0 1\n",
	"0\t1\t0.5\n# comment\n\n2 0\n", "x y z", "0 1 1e309", "18446744073709551616 1",
	"", "   ", "\t\n", "#", "  # vertices 7  ", "# vertices -3", "# vertices x",
	"1 2", "1\u00852\u0085", " 1 2 ", "  1\t2  3.5 ",
	"1 2\r", "1 2 0.25\r\n", "+5 6", "5 +6", "1 2 +5", "1 2 -5",
	"12345678901 1", "1 12345678901", "4294967295 4294967294", "4294967296 1",
	"0000000000007 0000000000008", "1 2 1e309", "1 2 -0", "1 2 NaN", "1 2 nan", "1 2 Inf",
	"1 2 3 4", "1 2 3 x", "1 2 0.5 extra fields here",
	"1 2 .5", "1 2 5.", "1 2 .", "1 2 1..2", "1 2 1_0", "1 2 0x1p-2", "1 2 1e-45", "1 2 1e-46",
	"1 2 0.1", "1 2 0.73412347", "1 2 16777217", "1 2 16777219", "1 2 0.000000000000001",
	"1 2 1234567890123456", "1 2 3.4028235e38", "1 2 340282356779733661637539395458142568448",
	"1", "1 ", "a b", "1 b", "1 2 x", "\xff 1", "1 \xff", "1 2 \xff", "1\xe2\x80 2",
	"1\xe2\x80\x83\xe2\x80\xe2\x80\x83 2",
}

// FuzzEdgeLine is differential against parseEdgeLineOracle, per line,
// on the parsed edge (weight by bits), the header's vertex count, ok and
// the error text.
func FuzzEdgeLine(f *testing.F) {
	for _, s := range edgeLineSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkLineAgainstOracle(t, []byte(input))
		for _, line := range strings.Split(input, "\n") {
			checkLineAgainstOracle(t, []byte(line))
		}
	})
}

// TestParseEdgeLineWeightsMatchOracle drives the inline weight path
// over the spellings WriteEdgeList produces (shortest float32 'g') and
// over padded, truncated and integral decimals, where a double-rounding
// slip would show.
func TestParseEdgeLineWeightsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var line []byte
	check := func(w string) {
		line = append(append(line[:0], "3 4 "...), w...)
		checkLineAgainstOracle(t, line)
	}
	for i := 0; i < 200_000; i++ {
		f := math.Float32frombits(rng.Uint32())
		if i%2 == 0 {
			f = float32(rng.Float64()*0.99 + 0.01)
		}
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) || f < 0 {
			continue
		}
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
		check(strconv.FormatFloat(float64(f), 'f', rng.Intn(16), 64))
		check(strconv.FormatFloat(float64(f), 'f', -1, 64))
		check(strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10))
	}
	// Decimals on and next to float32 halfway points.
	for i := 0; i < 20_000; i++ {
		f := float32(rng.Float64() * 1000)
		mid := (float64(f) + float64(math.Nextafter32(f, 2000))) / 2
		for _, d := range []float64{mid, math.Nextafter(mid, 0), math.Nextafter(mid, 2000)} {
			check(strconv.FormatFloat(d, 'f', -1, 64))
		}
	}
}

// TestReadEdgeListHeaderLowersCount: a later "# vertices N" header
// lowers the running count, later ids raise it only to themselves, and
// edges left out of range by the final count are dropped, as are
// self-loops.
func TestReadEdgeListHeaderLowersCount(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("5 6\n2 2\n# vertices 3\n0 1\n1 2 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Graph{NumVertices: 3, Index: []int32{0, 1, 2, 2}, Adj: []Half{{1, 1}, {2, 0.5}}}
	sameGraph(t, "header-lowers", g, want)
}

// buildWithSortSlice is Builder.Build's sort as it was written before
// it moved to slices.SortFunc: sort.Slice on (Src, Dst).
func buildWithSortSlice(n int, edges []Edge) *Graph {
	b := &Builder{n: n, edges: append([]Edge(nil), edges...)}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].Src != b.edges[j].Src {
			return b.edges[i].Src < b.edges[j].Src
		}
		return b.edges[i].Dst < b.edges[j].Dst
	})
	idx := make([]int32, n+1)
	for _, e := range b.edges {
		idx[e.Src+1]++
	}
	for i := 1; i <= n; i++ {
		idx[i] += idx[i-1]
	}
	adj := make([]Half, len(b.edges))
	for i, e := range b.edges {
		adj[i] = Half{Dst: e.Dst, Weight: e.Weight}
	}
	return &Graph{NumVertices: n, Index: idx, Adj: adj}
}

func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.NumVertices != want.NumVertices || len(got.Index) != len(want.Index) || len(got.Adj) != len(want.Adj) {
		t.Fatalf("%s: shape %d/%d/%d, want %d/%d/%d", name, got.NumVertices, len(got.Index), len(got.Adj),
			want.NumVertices, len(want.Index), len(want.Adj))
	}
	for i := range want.Index {
		if got.Index[i] != want.Index[i] {
			t.Fatalf("%s: Index[%d] = %d, want %d", name, i, got.Index[i], want.Index[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i].Dst != want.Adj[i].Dst || math.Float32bits(got.Adj[i].Weight) != math.Float32bits(want.Adj[i].Weight) {
			t.Fatalf("%s: Adj[%d] = %+v, want %+v", name, i, got.Adj[i], want.Adj[i])
		}
	}
}

// TestBuildOrderMatchesSortSlice pins Build's output, ties included, to
// the sort.Slice it replaced: on generator inputs, on a multigraph whose
// equal (Src, Dst) pairs carry different weights, and on sorted input,
// where Build skips the sort.
func TestBuildOrderMatchesSortSlice(t *testing.T) {
	check := func(name string, b *Builder) {
		t.Helper()
		want := buildWithSortSlice(b.n, b.edges) // copies b.edges before Build sorts them
		sameGraph(t, name, b.Build(), want)
	}
	for _, seed := range []int64{3, 7, 11} {
		check(fmt.Sprintf("rmat/seed=%d", seed), rmatBuilder(20000, 300000, 0.57, 0.19, 0.19, seed))
		check(fmt.Sprintf("web/seed=%d", seed), webBuilder(20000, 300000, 64, 0.85, seed))
		check(fmt.Sprintf("uniform/seed=%d", seed), uniformBuilder(2000, 30000, seed))
		// A multigraph: 60 000 edges over 40 (src, dst) pairs, every
		// weight distinct.
		rng := rand.New(rand.NewSource(seed))
		multi := NewBuilder(13)
		for i := 0; i < 60000; i++ {
			multi.AddEdge(VertexID(rng.Intn(5)), VertexID(5+rng.Intn(8)), float32(i))
		}
		sorted := NewBuilder(13)
		sorted.edges = append(sorted.edges, multi.edges...)
		sort.SliceStable(sorted.edges, func(i, j int) bool { return edgeCompare(sorted.edges[i], sorted.edges[j]) < 0 })
		check(fmt.Sprintf("multigraph/seed=%d", seed), multi)
		check(fmt.Sprintf("sorted/seed=%d", seed), sorted)
	}
}

// writeBenchEdgeList is the benchmark workloads' text input: a 300 k-edge
// R-MAT graph as WriteEdgeList writes it.
func writeBenchEdgeList(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, GenRMAT(20000, 300000, 0.57, 0.19, 0.19, 7)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadEdgeList parses a 300 k-edge text edge list into a graph;
// the MB/s column is the parser's throughput.
func BenchmarkReadEdgeList(b *testing.B) {
	data := writeBenchEdgeList(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderBuild sorts a 300 k-edge R-MAT graph's edges, in
// generation order, into CSR form.
func BenchmarkBuilderBuild(b *testing.B) {
	bld := rmatBuilder(20000, 300000, 0.57, 0.19, 0.19, 7)
	edges := append([]Edge(nil), bld.edges...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.edges = append(bld.edges[:0], edges...)
		bld.Build()
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
