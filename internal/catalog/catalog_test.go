package catalog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

func testGraph() *graph.Graph {
	return graph.GenRMAT(800, 6400, 0.57, 0.19, 0.19, 7)
}

func TestIngestListRemove(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph()
	if _, err := c.Ingest("beta", g, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("alpha", graph.GenUniform(200, 1200, 3), 2, 1, ""); err != nil {
		t.Fatal(err)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("List = %+v, want [alpha beta]", list)
	}
	if list[1].Vertices != g.NumVertices || list[1].Edges != int64(g.NumEdges()) {
		t.Fatalf("beta manifest %dv/%de, want %dv/%de",
			list[1].Vertices, list[1].Edges, g.NumVertices, g.NumEdges())
	}
	if err := c.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Entry("alpha"); err == nil {
		t.Fatal("Entry(alpha) succeeded after Remove")
	}
	// A fresh Catalog over the same directory still sees beta.
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	e, err := c2.Entry("beta")
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 3 || len(e.BlocksPer()) != 3 || e.BlocksPer()[0] != 2 {
		t.Fatalf("beta geometry = %d workers, blocks %v", e.Workers(), e.BlocksPer())
	}
}

func TestIngestRejectsBadNamesAndDuplicates(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GenUniform(100, 500, 1)
	for _, bad := range []string{"", ".hidden", "a/b", "sp ace", "x*"} {
		if _, err := c.Ingest(bad, g, 2, 1, ""); err == nil {
			t.Errorf("Ingest(%q) succeeded, want error", bad)
		}
	}
	if _, err := c.Ingest("dup", g, 2, 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("dup", g, 2, 1, ""); err == nil {
		t.Fatal("duplicate Ingest succeeded, want error")
	}
}

func TestCorruptedStoreRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("g", testGraph(), 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g", "w0", "adj.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh Catalog (no cached Entry) must reject the flipped byte via
	// the manifest checksum.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Entry("g"); err == nil {
		t.Fatal("Entry succeeded over a corrupted adjacency store")
	}
}

// An entry written by an older build lays veblock.dat out differently
// under the same file names and checksums that still verify: the manifest
// version is the only thing that tells them apart, so a version-1 entry
// must be refused, by an error naming both versions.
func TestOldManifestVersionRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("g", testGraph(), 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g", ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf(`"version": %d`, ManifestVersion)
	if !strings.Contains(string(data), cur) {
		t.Fatalf("manifest does not declare %s:\n%s", cur, data)
	}
	old := strings.Replace(string(data), cur, `"version": 1`, 1)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.Entry("g")
	if err == nil {
		t.Fatal("Entry served a version-1 entry")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, fmt.Sprintf("want %d", ManifestVersion)) {
		t.Fatalf("error does not name both versions: %v", err)
	}
	if list, err := c2.List(); err != nil || len(list) != 0 {
		t.Fatalf("List = %v, %v; want the old entry skipped", list, err)
	}
}

// readCatalogEvents parses the "catalog" events out of a JSONL trace
// journal.
func readCatalogEvents(t *testing.T, path string) []obs.CatalogEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []obs.CatalogEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if probe.Type != obs.EventCatalog {
			continue
		}
		var ev obs.CatalogEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCatalogReuseBitIdentical is the reuse acceptance check: results over
// catalog stores are bit-identical to a fresh per-job build, repeated runs
// stay identical, and the reused runs perform zero layout-build writes —
// cross-checked against both the JobResult and the trace journal.
func TestCatalogReuseBitIdentical(t *testing.T) {
	g := testGraph()
	const workers, blocks = 3, 2
	dir := t.TempDir()
	c, err := Open(filepath.Join(dir, "catalog"))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := c.Ingest("rmat", g, workers, blocks, "")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		prog   func() algo.Program
		engine core.Engine
	}{
		{"pagerank-hybrid", func() algo.Program { return algo.NewPageRank(0.85) }, core.Hybrid},
		{"sssp-bpull", func() algo.Program { return algo.NewSSSP(0) }, core.BPull},
		{"pagerank-push", func() algo.Program { return algo.NewPageRank(0.85) }, core.Push},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := core.Run(g, tc.prog(), core.Config{
				Workers: workers, BlocksPerWorker: blocks, MsgBuf: 200, MaxSteps: 6}, tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.CatalogHit || fresh.LayoutBuildBytes == 0 {
				t.Fatalf("fresh run: hit=%v build=%d, want miss with build writes",
					fresh.CatalogHit, fresh.LayoutBuildBytes)
			}
			for run := 1; run <= 2; run++ {
				trace := filepath.Join(t.TempDir(), "trace.jsonl")
				res, err := core.Run(entry.Graph(), tc.prog(), core.Config{
					Stores: entry, MsgBuf: 200, MaxSteps: 6, TracePath: trace}, tc.engine)
				if err != nil {
					t.Fatal(err)
				}
				if !res.CatalogHit {
					t.Fatalf("run %d: CatalogHit = false", run)
				}
				if res.LayoutBuildBytes != 0 {
					t.Fatalf("run %d: %d layout-build bytes on a catalog hit", run, res.LayoutBuildBytes)
				}
				if res.LayoutReusedBytes == 0 {
					t.Fatalf("run %d: LayoutReusedBytes = 0", run)
				}
				if len(res.Values) != len(fresh.Values) {
					t.Fatalf("run %d: %d values, fresh %d", run, len(res.Values), len(fresh.Values))
				}
				for v := range fresh.Values {
					if res.Values[v] != fresh.Values[v] {
						t.Fatalf("run %d: vertex %d = %g, fresh %g (not bit-identical)",
							run, v, res.Values[v], fresh.Values[v])
					}
				}
				evs := readCatalogEvents(t, trace)
				if len(evs) != 1 {
					t.Fatalf("run %d: %d catalog trace events, want 1", run, len(evs))
				}
				if !evs[0].Hit || evs[0].BuiltBytes != 0 || evs[0].Graph != "rmat" {
					t.Fatalf("run %d: catalog trace event %+v, want hit on rmat with zero built bytes",
						run, evs[0])
				}
				if evs[0].ReusedBytes != res.LayoutReusedBytes {
					t.Fatalf("run %d: trace reused=%d, result reused=%d",
						run, evs[0].ReusedBytes, res.LayoutReusedBytes)
				}
			}
		})
	}
}

// TestInMemoryIdentity pins the sufficient-memory scenario as a charge
// rule: under InMemory no store charges anything, whether setup built the
// stores from the graph or opened them from a catalog entry, so every
// engine reports zero I/O and the same values and simulated time over
// either source.
func TestInMemoryIdentity(t *testing.T) {
	g := testGraph()
	c, err := Open(filepath.Join(t.TempDir(), "catalog"))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := c.Ingest("rmat", g, 3, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range core.Engines {
		t.Run(string(e), func(t *testing.T) {
			var runs [2]*metrics.JobResult
			for i, src := range []core.StoreSource{nil, entry} {
				res, err := core.Run(g, algo.NewPageRank(0.85), core.Config{
					Workers: 3, InMemory: true, MaxSteps: 5, Stores: src}, e)
				if err != nil {
					t.Fatal(err)
				}
				if res.LoadIO != (diskio.Snapshot{}) {
					t.Errorf("stores %d: LoadIO %v, want zero", i, res.LoadIO)
				}
				for _, st := range res.Steps {
					if st.IO != (diskio.Snapshot{}) || st.LogIO != (diskio.Snapshot{}) ||
						st.PhysIO != (diskio.Snapshot{}) || st.Parts != (metrics.IOBreakdown{}) {
						t.Errorf("stores %d, step %d: IO %v, LogIO %v, PhysIO %v, Parts %+v; want all zero",
							i, st.Step, st.IO, st.LogIO, st.PhysIO, st.Parts)
					}
				}
				runs[i] = res
			}
			built, opened := runs[0], runs[1]
			if len(built.Values) != len(opened.Values) {
				t.Fatalf("%d values over built stores, %d over the entry", len(built.Values), len(opened.Values))
			}
			for v := range built.Values {
				if built.Values[v] != opened.Values[v] {
					t.Fatalf("vertex %d: %g over built stores, %g over the entry", v, built.Values[v], opened.Values[v])
				}
			}
			if built.SimSeconds != opened.SimSeconds {
				t.Errorf("SimSeconds %g over built stores, %g over the entry", built.SimSeconds, opened.SimSeconds)
			}
		})
	}
}

// TestCrashedIngestLeavesNoEntry checks the atomic-rename protocol: a
// half-built staging directory is invisible to Entry/List and does not
// block a later successful ingest.
func TestCrashedIngestLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	// Fake an interrupted ingest: the hidden staging dir exists with some
	// files but was never renamed into place.
	stage := filepath.Join(dir, ".g.ingest")
	if err := os.MkdirAll(filepath.Join(stage, "w0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "w0", "adj.dat"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if list, err := c.List(); err != nil || len(list) != 0 {
		t.Fatalf("List = %v, %v; want empty", list, err)
	}
	if _, err := c.Entry("g"); err == nil {
		t.Fatal("Entry resolved a half-ingested graph")
	}
	if _, err := c.Ingest("g", graph.GenUniform(100, 500, 1), 2, 1, ""); err != nil {
		t.Fatalf("re-ingest after crash: %v", err)
	}
}
