package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridgraph/internal/adjstore"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/veblock"
)

type edge struct {
	src, dst uint32
	w        float32
}

func parseAll(t *testing.T, input []byte) (int, int64, []edge, error) {
	t.Helper()
	var out []edge
	n, parsed, err := parseStream(bytes.NewReader(input), func(src, dst uint32, w float32) error {
		out = append(out, edge{src, dst, w})
		return nil
	})
	return n, parsed, out, err
}

func TestParseTextSemantics(t *testing.T) {
	cases := []struct {
		name  string
		input string
		n     int
		edges []edge
	}{
		{"plain", "0 1\n1 2\n", 3, []edge{{0, 1, 1}, {1, 2, 1}}},
		{"weights", "0 1 2.5\n1 0 0.25\n", 2, []edge{{0, 1, 2.5}, {1, 0, 0.25}}},
		{"header", "# vertices 10\n0 1\n", 10, []edge{{0, 1, 1}}},
		// A later header overwrites the running count, even downward —
		// graph.ReadEdgeList's exact rule.
		{"header-lowers", "5 6\n# vertices 3\n0 1\n", 3, []edge{{5, 6, 1}, {0, 1, 1}}},
		{"ids-raise-header", "# vertices 2\n7 1\n", 8, []edge{{7, 1, 1}}},
		{"comments-blanks", "# a comment\n\n  \n0 1\n# another\n2 0\n", 3, []edge{{0, 1, 1}, {2, 0, 1}}},
		{"tabs", "0\t1\t3\n", 2, []edge{{0, 1, 3}}},
		{"empty", "", 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, parsed, got, err := parseAll(t, []byte(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.n {
				t.Fatalf("n = %d, want %d", n, tc.n)
			}
			if parsed != int64(len(tc.edges)) {
				t.Fatalf("parsed = %d, want %d", parsed, len(tc.edges))
			}
			if len(got) != len(tc.edges) {
				t.Fatalf("edges = %v, want %v", got, tc.edges)
			}
			for i := range got {
				if got[i] != tc.edges[i] {
					t.Fatalf("edge %d = %v, want %v", i, got[i], tc.edges[i])
				}
			}
			// Differential: where the text parser succeeds, its count
			// must agree with graph.ReadEdgeList over the same bytes.
			g, err := graph.ReadEdgeList(strings.NewReader(tc.input))
			if tc.n == 0 {
				return // ReadEdgeList rejects empty graphs; parseStream defers that
			}
			if err != nil {
				t.Fatalf("ReadEdgeList: %v", err)
			}
			if g.NumVertices != tc.n {
				t.Fatalf("ReadEdgeList n = %d, parser n = %d", g.NumVertices, tc.n)
			}
		})
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, input := range []string{
		"0\n",                 // one field
		"x 1\n",               // bad src
		"0 y\n",               // bad dst
		"0 1 heavy\n",         // bad weight
		"0 1\n5000000000 1\n", // src overflows uint32
	} {
		_, _, _, err := parseAll(t, []byte(input))
		if !errors.Is(err, ErrFormat) {
			t.Errorf("input %q: err = %v, want ErrFormat", input, err)
		}
	}
}

func binEdges(edges []edge) []byte {
	out := []byte(BinaryMagic)
	for _, e := range edges {
		out = binary.LittleEndian.AppendUint32(out, e.src)
		out = binary.LittleEndian.AppendUint32(out, e.dst)
	}
	return out
}

func TestParseBinary(t *testing.T) {
	want := []edge{{0, 7, 1}, {7, 3, 1}, {2, 2, 1}}
	n, parsed, got, err := parseAll(t, binEdges(want))
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || parsed != 3 {
		t.Fatalf("n=%d parsed=%d, want 8/3", n, parsed)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
	// A trailing partial record is a truncation, typed ErrFormat.
	_, _, _, err = parseAll(t, binEdges(want)[:len(BinaryMagic)+11])
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated binary: err = %v, want ErrFormat", err)
	}
}

func gz(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseGzip(t *testing.T) {
	text := []byte("0 1\n1 2\n")
	for name, input := range map[string][]byte{
		"text":   gz(t, text),
		"double": gz(t, gz(t, text)),
		"binary": gz(t, binEdges([]edge{{0, 1, 1}, {1, 2, 1}})),
	} {
		n, parsed, _, err := parseAll(t, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 3 || parsed != 2 {
			t.Fatalf("%s: n=%d parsed=%d, want 3/2", name, n, parsed)
		}
	}
	// Garbage after a gzip magic prefix is a format error, not a panic.
	if _, _, _, err := parseAll(t, []byte{0x1f, 0x8b, 0xff, 0x00, 0x01}); !errors.Is(err, ErrFormat) {
		t.Fatalf("gzip garbage: err = %v, want ErrFormat", err)
	}
	// Nesting beyond the cap is rejected rather than recursed forever.
	deep := text
	for i := 0; i <= gzipNesting; i++ {
		deep = gz(t, deep)
	}
	if _, _, _, err := parseAll(t, deep); !errors.Is(err, ErrFormat) {
		t.Fatalf("deep gzip: err = %v, want ErrFormat", err)
	}
}

func TestParseBytes(t *testing.T) {
	for in, want := range map[string]int64{
		"0": 0, "123": 123, "64k": 64 << 10, "64K": 64 << 10,
		"1.5m": 3 << 19, "2g": 2 << 30, "64MiB": 64 << 20, "10kb": 10 << 10,
	} {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "x", "12q", "k"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", bad)
		}
	}
}

func TestSorterSpillsAndMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var recs []rec
	for i := 0; i < 20000; i++ {
		recs = append(recs, rec{
			a: uint32(rng.Intn(4)), b: uint32(rng.Intn(4)),
			src: uint32(rng.Intn(500)), dst: uint32(rng.Intn(500)), w: rng.Uint32(),
		})
	}
	want := append([]rec(nil), recs...)
	sortRecs(want)
	for _, budget := range []int64{0, 16 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			s := newSorter(t.TempDir(), "t", &diskio.Counter{}, codec.None, budget)
			for _, r := range recs {
				if err := s.add(r); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.finish()
			if err != nil {
				t.Fatal(err)
			}
			defer it.close()
			for i := range want {
				r, ok, err := it.next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("stream ended at %d of %d", i, len(want))
				}
				if r != want[i] {
					t.Fatalf("record %d = %v, want %v", i, r, want[i])
				}
			}
			if _, ok, _ := it.next(); ok {
				t.Fatal("stream yielded extra records")
			}
			if budget == 0 && s.spilled != 0 {
				t.Fatalf("unlimited budget spilled %d runs", s.spilled)
			}
			if budget == 16<<10 && (s.spilled == 0 || s.gens < 3) {
				t.Fatalf("tiny budget: %d runs, %d generations; want spills and >=3 generations",
					s.spilled, s.gens)
			}
		})
	}
}

func TestSorterCorruptSpillDetected(t *testing.T) {
	dir := t.TempDir()
	s := newSorter(dir, "t", &diskio.Counter{}, codec.None, 16<<10)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		if err := s.add(rec{src: rng.Uint32(), dst: rng.Uint32(), w: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no spill runs (%v)", err)
	}
	data, err := os.ReadFile(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(runs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	it, err := s.finish()
	if err == nil {
		defer it.close()
		for {
			_, ok, nerr := it.next()
			if nerr != nil {
				err = nerr
				break
			}
			if !ok {
				break
			}
		}
	}
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v, want codec.ErrCorrupt", err)
	}
}

// buildDirs builds the same input at several budgets plus the in-memory
// path, returning the directories.
func TestBuildByteIdenticalAcrossBudgets(t *testing.T) {
	const n, m = 400, 6000
	input := synthEdgeList(t, n, m, 3)
	g, err := graph.ReadEdgeList(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}

	build := func(name string, f func(o Options) (*Stats, error)) (string, *Stats) {
		t.Helper()
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		st, err := f(Options{Dir: dir, Workers: 3, BlocksPer: 2, Codec: codec.None})
		if err != nil {
			t.Fatal(err)
		}
		return dir, st
	}

	memDir, _ := build("mem", func(o Options) (*Stats, error) { return BuildFromGraph(o, g) })
	for _, budget := range []int64{16 << 10, 256 << 10, 0} {
		o := budget
		dir, st := build(fmt.Sprintf("b%d", budget), func(opt Options) (*Stats, error) {
			opt.MemBudget = o
			return BuildFromStream(opt, bytes.NewReader(input))
		})
		if budget == 16<<10 && st.MergeGenerations < 3 {
			t.Errorf("budget 16k: %d merge generations, want >= 3", st.MergeGenerations)
		}
		if budget == 0 && st.Runs != 0 {
			t.Errorf("unlimited budget spilled %d runs", st.Runs)
		}
		if st.Vertices != g.NumVertices || st.Edges != int64(g.NumEdges()) {
			t.Errorf("budget %d: stats %dv/%de, graph %dv/%de",
				budget, st.Vertices, st.Edges, g.NumVertices, g.NumEdges())
		}
		compareTrees(t, memDir, dir)
	}
}

// TestBuildHeapBound holds MemBudget to what it documents: the builder's
// working memory. A 2 M-edge text edge list (~24 MB) streamed from a file
// through BuildFromStream at a 16 MiB budget must keep the sampled heap
// above the pre-build baseline within the budget while really spilling;
// the same input with no budget must exceed it, or the bound proves
// nothing. The scope is the build only: catalog.IngestStream goes on to
// load the published entry's in-memory graph, which is O(edges) and not
// what MemBudget bounds.
func TestBuildHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 24 MB edge list twice")
	}
	const budget = 16 << 20
	file := filepath.Join(t.TempDir(), "edges.el")
	writeSyntheticEdgeList(t, file, 125_000, 2_000_000, 42)

	build := func(memBudget int64) (peak int64, st *Stats) {
		t.Helper()
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		o := Options{Dir: t.TempDir(), Workers: 5, BlocksPer: 1, Codec: codec.None, MemBudget: memBudget}
		peak = sampledHeapPeak(func() { st, err = BuildFromStream(o, f) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("MemBudget %d: sampled peak heap %d B above baseline, %d runs, %d merge generations",
			memBudget, peak, st.Runs, st.MergeGenerations)
		return peak, st
	}

	peak, st := build(budget)
	if peak > budget {
		t.Errorf("peak heap %d B exceeds the %d B budget", peak, budget)
	}
	if st.Runs < 20 {
		t.Errorf("%d spilled runs, want >= 20 (the sort did not really spill)", st.Runs)
	}
	if unlimited, _ := build(0); unlimited <= budget {
		t.Errorf("unlimited build peaked at %d B, within the %d B budget: the bound has no teeth on this input", unlimited, budget)
	}
}

// sampledHeapPeak runs f and returns the high-water mark of
// runtime.MemStats.HeapAlloc, sampled every 20 ms, above its value just
// before f (after a GC).
func sampledHeapPeak(f func()) int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base // the sampler's until it closes sampled
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	f()
	close(stop)
	<-sampled
	return int64(peak - base)
}

// writeSyntheticEdgeList streams a deterministic text edge list of m
// edges over n vertices to path, without holding it in memory.
func writeSyntheticEdgeList(t *testing.T, path string, n, m int, seed int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	var line []byte
	fmt.Fprintf(w, "# vertices %d\n", n)
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if dst == src {
			dst = (dst + 1) % n
		}
		line = strconv.AppendInt(line[:0], int64(src), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(dst), 10)
		line = append(line, '\n')
		w.Write(line) // a write error is sticky: Flush reports it
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMatchesLegacyStoreBuilders pins the layout bytes to the
// original per-worker builders: the streamed adj.dat and veblock.dat
// must be byte-for-byte what adjstore.Build and veblock.Build write from
// the materialised graph.
func TestBuildMatchesLegacyStoreBuilders(t *testing.T) {
	input := synthEdgeList(t, 300, 4000, 7)
	g, err := graph.ReadEdgeList(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	const workers, blocksPer = 3, 2
	for _, codecName := range []string{"none", "delta", "lz"} {
		t.Run(codecName, func(t *testing.T) {
			cdc, err := codec.Lookup(codecName)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := BuildFromStream(Options{Dir: dir, Workers: workers,
				BlocksPer: blocksPer, Codec: cdc, MemBudget: 32 << 10},
				bytes.NewReader(input)); err != nil {
				t.Fatal(err)
			}
			parts := graph.RangePartition(g.NumVertices, workers)
			bp := make([]int, workers)
			for i := range bp {
				bp[i] = blocksPer
			}
			layout, err := veblock.NewLayout(parts, bp)
			if err != nil {
				t.Fatal(err)
			}
			ref := t.TempDir()
			ct := &diskio.Counter{}
			for w := 0; w < workers; w++ {
				adjRef := filepath.Join(ref, fmt.Sprintf("adj%d.dat", w))
				a, err := adjstore.Build(adjRef, ct, g, parts[w], cdc)
				if err != nil {
					t.Fatal(err)
				}
				a.Close()
				veRef := filepath.Join(ref, fmt.Sprintf("ve%d.dat", w))
				ve, err := veblock.Build(veRef, ct, g, layout, w, cdc)
				if err != nil {
					t.Fatal(err)
				}
				ve.Close()
				compareFiles(t, adjRef, filepath.Join(dir, fmt.Sprintf("w%d", w), "adj.dat"))
				compareFiles(t, veRef, filepath.Join(dir, fmt.Sprintf("w%d", w), "veblock.dat"))
			}
		})
	}
}

func TestBuildRejectsEmptyAndOverPartitioned(t *testing.T) {
	o := Options{Dir: t.TempDir(), Workers: 2}
	if _, err := BuildFromStream(o, strings.NewReader("")); !errors.Is(err, ErrFormat) {
		t.Fatalf("empty input: err = %v, want ErrFormat", err)
	}
	o.Dir = t.TempDir()
	o.Workers = 10
	if _, err := BuildFromStream(o, strings.NewReader("0 1\n")); err == nil {
		t.Fatal("10 workers for 2 vertices succeeded")
	}
}

func TestBuildDropsSelfLoopsAndOutOfRange(t *testing.T) {
	// The trailing header lowers n to 3, stranding the 7->1 edge out of
	// range; 2->2 is a self-loop. Both drop, mirroring graph.ReadEdgeList
	// + Builder exactly.
	input := "7 1\n0 1\n2 2\n1 2\n# vertices 3\n"
	dir := t.TempDir()
	st, err := BuildFromStream(Options{Dir: dir, Workers: 1}, strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 3 || st.Edges != 2 || st.SelfLoops != 1 || st.OutOfRange != 1 {
		t.Fatalf("stats = %+v, want 3v/2e, 1 self-loop, 1 out-of-range", st)
	}
	g, err := graph.LoadEdgeList(filepath.Join(dir, "graph.el"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph.el is %dv/%de, want 3v/2e", g.NumVertices, g.NumEdges())
	}
}

func TestBuildCleansSpillDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := BuildFromStream(Options{Dir: dir, Workers: 2, MemBudget: 16 << 10},
		bytes.NewReader(synthEdgeList(t, 100, 2000, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SpillDirName)); !os.IsNotExist(err) {
		t.Fatalf("spill dir survives the build (stat err = %v)", err)
	}
}

// synthEdgeList generates a deterministic text edge list with unique
// (src, dst) pairs (ties in the canonical sort would make legacy CSR
// builders order-dependent) and varied weights.
func synthEdgeList(t *testing.T, n, m int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# vertices %d\n", n)
	for len(seen) < m {
		src := uint32(rng.Intn(n))
		dst := uint32(rng.Intn(n))
		if src == dst {
			continue
		}
		key := uint64(src)<<32 | uint64(dst)
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(&buf, "%d %d %g\n", src, dst, float32(rng.Intn(1000))/8)
	}
	return buf.Bytes()
}

func compareTrees(t *testing.T, want, got string) {
	t.Helper()
	var wantFiles []string
	filepath.Walk(want, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			rel, _ := filepath.Rel(want, path)
			wantFiles = append(wantFiles, rel)
		}
		return nil
	})
	sort.Strings(wantFiles)
	var gotFiles []string
	filepath.Walk(got, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			rel, _ := filepath.Rel(got, path)
			gotFiles = append(gotFiles, rel)
		}
		return nil
	})
	sort.Strings(gotFiles)
	if len(wantFiles) != len(gotFiles) {
		t.Fatalf("trees differ: %v vs %v", wantFiles, gotFiles)
	}
	for i, rel := range wantFiles {
		if gotFiles[i] != rel {
			t.Fatalf("trees differ: %v vs %v", wantFiles, gotFiles)
		}
		compareFiles(t, filepath.Join(want, rel), filepath.Join(got, rel))
	}
}

func compareFiles(t *testing.T, want, got string) {
	t.Helper()
	wb, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s and %s differ (%d vs %d bytes)", want, got, len(wb), len(gb))
	}
}
