// Package catalog implements the persistent graph catalog of the service
// daemon: a graph is ingested once — its edge list, per-worker adjacency
// runs and VE-BLOCK Eblock files written under a catalog directory with a
// CRC-carrying manifest — and every subsequent job opens those files
// read-only instead of rebuilding them. This is the paper's VE-BLOCK
// amortisation argument made operational: the one-time loading cost of
// Fig. 16 is paid at ingest, and each job's LoadIO shrinks to its private
// vertex-store initialisation (vertex values mutate per job and are never
// shared). An Entry implements core.StoreSource, so handing it to
// core.Config.Stores is the whole integration surface.
package catalog

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hybridgraph/internal/adjstore"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/ingest"
	"hybridgraph/internal/veblock"
)

// ManifestVersion is bumped whenever the on-disk layout changes shape;
// entries with a different version are rejected rather than misread.
// Version 2: veblock.dat is destination-block-major (1 was source-major).
const ManifestVersion = 2

// ManifestName is the per-graph manifest file name.
const ManifestName = "manifest.json"

// FileSum records one catalog file's size and IEEE CRC32, verified before
// an entry is served to jobs.
type FileSum struct {
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest describes one ingested graph: its dimensions, the partition
// geometry its stores were built for (authoritative for every job that
// reuses them), the sequential-write bytes ingestion paid, and a checksum
// per file. It is written last during ingest, so a manifest's presence
// implies the files beside it are complete.
type Manifest struct {
	Name      string `json:"name"`
	Version   int    `json:"version"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	Workers   int    `json:"workers"`
	BlocksPer []int  `json:"blocks_per"`
	// IngestWriteBytes is the layout-build cost paid once at ingest (the
	// bytes every catalog-hit job avoids), always in logical bytes.
	IngestWriteBytes int64              `json:"ingest_write_bytes"`
	Files            map[string]FileSum `json:"files"`
	// Codec names the block codec the adjacency and VE-BLOCK files were
	// encoded with at ingest (a manifest that omits it means "none"). Jobs
	// must open the entry with the same codec; the mismatch is a typed
	// configuration error, not a silent re-encode.
	Codec string `json:"codec,omitempty"`
}

// Catalog is a directory of ingested graphs. Safe for concurrent use;
// loaded entries are cached and shared (they are immutable).
type Catalog struct {
	root    string
	mu      sync.Mutex
	entries map[string]*Entry
}

// Open opens (creating if needed) a catalog rooted at dir.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Catalog{root: dir, entries: make(map[string]*Entry)}, nil
}

// Root reports the catalog directory.
func (c *Catalog) Root() string { return c.root }

// validName rejects names that would escape the catalog directory or
// collide with ingest's temporary directories.
func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("catalog: empty or oversized graph name")
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("catalog: graph name %q may not start with '.'", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return fmt.Errorf("catalog: graph name %q contains %q (want [A-Za-z0-9._-])", name, r)
		}
	}
	return nil
}

// Ingest builds graph g's catalog entry under the given name: the edge
// list, one adjacency file and one VE-BLOCK file per worker, and the
// manifest. The build happens in a hidden temporary directory that is
// renamed into place only after the manifest is written, so a crashed
// ingest never leaves a half-entry a later open could trust. blocksPer
// fixes each worker's Vblock count (>= 1); jobs reusing the entry adopt
// this geometry. codecName selects the block codec the stores are encoded
// with ("" or "none" for the raw layout); it is recorded in the manifest
// and every job opening the entry must declare the same codec.
func (c *Catalog) Ingest(name string, g *graph.Graph, workers, blocksPer int, codecName string) (*Entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if g == nil || g.NumVertices <= 0 {
		return nil, fmt.Errorf("catalog: ingest of empty graph %q", name)
	}
	if workers <= 0 || workers > g.NumVertices {
		return nil, fmt.Errorf("catalog: %d workers for %d vertices", workers, g.NumVertices)
	}
	e, _, err := c.ingestWith(name, codecName, workers, blocksPer,
		func(tmp string, cdc codec.Codec, ct *diskio.Counter) (*ingest.Stats, error) {
			return ingest.BuildFromGraph(ingest.Options{
				Dir: tmp, Workers: workers, BlocksPer: blocksPer,
				Codec: cdc, LayoutCT: ct}, g)
		})
	return e, err
}

// StreamOptions configures IngestStream. Workers is required; BlocksPer
// defaults to 1, Codec to "none", and MemBudget <= 0 means unlimited
// (the whole sort happens in memory, nothing spills).
type StreamOptions struct {
	Workers   int
	BlocksPer int
	Codec     string
	MemBudget int64
}

// IngestStream builds a catalog entry directly from an edge-list stream
// — text, binary, or gzip-wrapped, sniffed by magic bytes — without
// materialising the graph: the streaming builder external-sorts the
// edges under o.MemBudget and writes the entry layout shard by shard.
// The published entry is bit-identical to what Ingest would produce
// from the parsed graph, whatever the budget. The same staged-rename
// publishing protocol applies: a failed or interrupted stream leaves no
// trace under the catalog root except a hidden temp directory that the
// next attempt clears.
func (c *Catalog) IngestStream(name string, r io.Reader, o StreamOptions) (*Entry, *ingest.Stats, error) {
	if err := validName(name); err != nil {
		return nil, nil, err
	}
	if o.Workers <= 0 {
		return nil, nil, fmt.Errorf("catalog: %d workers", o.Workers)
	}
	return c.ingestWith(name, o.Codec, o.Workers, o.BlocksPer,
		func(tmp string, cdc codec.Codec, ct *diskio.Counter) (*ingest.Stats, error) {
			return ingest.BuildFromStream(ingest.Options{
				Dir: tmp, Workers: o.Workers, BlocksPer: o.BlocksPer,
				Codec: cdc, MemBudget: o.MemBudget, LayoutCT: ct}, r)
		})
}

// ingestWith runs one build function against a staged hidden directory
// and publishes the result: build, fsync + checksum every file, write
// the manifest, rename into place. Every error path removes the staging
// directory, so a failed ingest is all-or-nothing.
func (c *Catalog) ingestWith(name, codecName string, workers, blocksPer int,
	build func(tmp string, cdc codec.Codec, ct *diskio.Counter) (*ingest.Stats, error)) (*Entry, *ingest.Stats, error) {
	cdc, err := codec.Lookup(codecName)
	if err != nil {
		return nil, nil, fmt.Errorf("catalog: ingest of %q: %w", name, err)
	}
	if blocksPer <= 0 {
		blocksPer = 1
	}
	final := filepath.Join(c.root, name)
	if _, err := os.Stat(final); err == nil {
		return nil, nil, fmt.Errorf("catalog: graph %q already ingested", name)
	}
	tmp := filepath.Join(c.root, "."+name+".ingest")
	if err := os.RemoveAll(tmp); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	ct := &diskio.Counter{}
	st, err := build(tmp, cdc, ct)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	m := &Manifest{Name: name, Version: ManifestVersion,
		Vertices: st.Vertices, Edges: st.Edges,
		Workers: workers, Files: make(map[string]FileSum),
		IngestWriteBytes: ct.Bytes(diskio.SeqWrite), Codec: cdc.Name()}
	m.BlocksPer = make([]int, workers)
	for i := range m.BlocksPer {
		m.BlocksPer[i] = blocksPer
	}
	// Fsync then checksum everything built so far (the manifest itself is
	// excluded). The sync is the durability half of the ingest contract:
	// the manifest asserts these exact bytes, so they must be on the
	// platter before the manifest — let alone the publishing rename —
	// exists. A power cut after Ingest returns must find a verifiable
	// entry (see DESIGN.md, "Durability contract").
	err = filepath.Walk(tmp, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(tmp, path)
		if err != nil {
			return err
		}
		if err := diskio.SyncFile(path, ct); err != nil {
			return err
		}
		sum, err := checksumFile(path)
		if err != nil {
			return err
		}
		m.Files[filepath.ToSlash(rel)] = sum
		return nil
	})
	if err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	if err := writeManifest(filepath.Join(tmp, ManifestName), m); err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	// The publishing rename goes through diskio so the storage-fault layer
	// can model it (a simulated power cut on the rename leaves the entry
	// fully absent, never half-published).
	if err := diskio.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	e, err := c.Entry(name)
	if err != nil {
		return nil, nil, err
	}
	return e, st, nil
}

func checksumFile(path string) (FileSum, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileSum{}, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return FileSum{}, err
	}
	return FileSum{Size: n, CRC32: h.Sum32()}, nil
}

// writeManifest publishes the manifest via write-temp/fsync/rename
// (diskio.WriteFileSync), so a crash never leaves a torn manifest: the
// entry either has its complete manifest or none at all.
func writeManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return diskio.WriteFileSync(path, data, &diskio.Counter{}, diskio.SeqWrite)
}

// Entry loads (or returns the cached) entry for name, verifying every
// catalog file against the manifest's size and CRC before serving it.
func (c *Catalog) Entry(name string) (*Entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		c.mu.Unlock()
		return e, nil
	}
	c.mu.Unlock()
	e, err := loadEntry(filepath.Join(c.root, name))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.entries[name]; ok {
		return prior, nil
	}
	c.entries[name] = e
	return e, nil
}

// List reports the manifests of every ingested graph, sorted by name.
// Entries whose manifest is unreadable are skipped (a concurrent ingest's
// temporary directory, or damage Entry would reject anyway).
func (c *Catalog) List() ([]*Manifest, error) {
	des, err := os.ReadDir(c.root)
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, de := range des {
		if !de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		m, err := readManifest(filepath.Join(c.root, de.Name(), ManifestName))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove deletes an ingested graph. Jobs already holding the entry keep
// their open file handles (POSIX unlink semantics); new Entry calls fail.
func (c *Catalog) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.entries, name)
	c.mu.Unlock()
	return os.RemoveAll(filepath.Join(c.root, name))
}

func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("catalog: %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("catalog: %s: manifest version %d, want %d", path, m.Version, ManifestVersion)
	}
	return m, nil
}

// Entry is one ingested graph, loaded and verified: the staged graph plus
// the geometry and paths of its pre-built stores. It implements
// core.StoreSource (structurally — catalog does not import core), is
// immutable, and is shared by every job over the graph; each OpenAdj /
// OpenVE call returns an independent read-only handle charged to the
// calling job's counter.
type Entry struct {
	dir      string
	manifest *Manifest
	g        *graph.Graph
	parts    []graph.Partition
	cdc      codec.Codec
}

func loadEntry(dir string) (*Entry, error) {
	m, err := readManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	for rel, want := range m.Files {
		got, err := checksumFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, fmt.Errorf("catalog: %s: %w", m.Name, err)
		}
		if got != want {
			return nil, fmt.Errorf("catalog: %s: %s failed verification (size %d crc %08x, manifest says size %d crc %08x)",
				m.Name, rel, got.Size, got.CRC32, want.Size, want.CRC32)
		}
	}
	g, err := graph.LoadEdgeList(filepath.Join(dir, "graph.el"))
	if err != nil {
		return nil, err
	}
	if g.NumVertices != m.Vertices || int64(g.NumEdges()) != m.Edges {
		return nil, fmt.Errorf("catalog: %s: edge list is %dv/%de, manifest says %dv/%de",
			m.Name, g.NumVertices, g.NumEdges(), m.Vertices, m.Edges)
	}
	if len(m.BlocksPer) != m.Workers || m.Workers <= 0 {
		return nil, fmt.Errorf("catalog: %s: inconsistent geometry (%d workers, %d block counts)",
			m.Name, m.Workers, len(m.BlocksPer))
	}
	cdc, err := codec.Lookup(m.Codec)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s: %w", m.Name, err)
	}
	return &Entry{dir: dir, manifest: m, g: g, cdc: cdc,
		parts: graph.RangePartition(g.NumVertices, m.Workers)}, nil
}

// Graph returns the staged graph jobs should run over.
func (e *Entry) Graph() *graph.Graph { return e.g }

// Manifest returns the entry's manifest (treat as read-only).
func (e *Entry) Manifest() *Manifest { return e.manifest }

// GraphName implements core.StoreSource.
func (e *Entry) GraphName() string { return e.manifest.Name }

// Workers implements core.StoreSource.
func (e *Entry) Workers() int { return e.manifest.Workers }

// BlocksPer implements core.StoreSource.
func (e *Entry) BlocksPer() []int {
	return append([]int(nil), e.manifest.BlocksPer...)
}

// Codec implements core.StoreSource: the canonical name of the block
// codec the entry's store files were encoded with at ingest. Jobs must
// run with a matching Config.Codec.
func (e *Entry) Codec() string { return e.cdc.Name() }

// OpenAdj implements core.StoreSource.
func (e *Entry) OpenAdj(w int, ct *diskio.Counter, g *graph.Graph, part graph.Partition) (*adjstore.Store, error) {
	if w < 0 || w >= e.manifest.Workers {
		return nil, fmt.Errorf("catalog: %s: no worker %d", e.manifest.Name, w)
	}
	if part != e.parts[w] {
		return nil, fmt.Errorf("catalog: %s: worker %d partition [%d,%d) does not match ingested [%d,%d)",
			e.manifest.Name, w, part.Lo, part.Hi, e.parts[w].Lo, e.parts[w].Hi)
	}
	return adjstore.Open(filepath.Join(e.dir, fmt.Sprintf("w%d", w), "adj.dat"), ct, g, part, e.cdc)
}

// OpenVE implements core.StoreSource.
func (e *Entry) OpenVE(w int, ct *diskio.Counter, g *graph.Graph, layout *veblock.Layout) (*veblock.Store, error) {
	if w < 0 || w >= e.manifest.Workers {
		return nil, fmt.Errorf("catalog: %s: no worker %d", e.manifest.Name, w)
	}
	return veblock.Open(filepath.Join(e.dir, fmt.Sprintf("w%d", w), "veblock.dat"), ct, g, layout, w, e.cdc)
}
