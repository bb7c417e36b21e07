package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/veblock"
)

var le = binary.LittleEndian

// SpillDirName is the hidden scratch directory the builder keeps inside
// the staging dir. It is removed before the build returns, so the
// catalog's checksum walk never sees it.
const SpillDirName = ".spill"

// Options configures one streaming build into a staging directory.
type Options struct {
	// Dir is the staging directory the entry files are written into
	// (graph.el plus w<i>/adj.dat and w<i>/veblock.dat per worker).
	Dir string
	// Workers is the partition count the stores are built for.
	Workers int
	// BlocksPer is each worker's Vblock count (min 1).
	BlocksPer int
	// Codec frames the store files and the spill runs (nil = raw).
	Codec codec.Codec
	// MemBudget bounds the builder's working memory in bytes: run
	// buffers, merge fan-in and frame staging are all derived from it.
	// <= 0 means unlimited — everything sorts in memory, nothing spills.
	MemBudget int64
	// LayoutCT receives the adjacency/VE-BLOCK write charges — the
	// manifest's IngestWriteBytes, identical whatever the budget.
	LayoutCT *diskio.Counter
	// SpillCT receives the external sort's scratch I/O: sequential
	// logical writes and reads of the raw record stream, with physical
	// frame bytes on its phys twin (attached if absent).
	SpillCT *diskio.Counter
}

// Stats reports what one build did. Vertices and Edges describe the
// resulting entry; the rest describe the external sort's effort.
type Stats struct {
	Vertices    int   `json:"vertices"`
	Edges       int64 `json:"edges"`
	ParsedEdges int64 `json:"parsed_edges"`
	SelfLoops   int64 `json:"self_loops"`
	OutOfRange  int64 `json:"out_of_range"`
	// Runs counts the sorted runs spilled to disk (both sort phases);
	// 0 means the build fit in memory. MergeGenerations counts merge
	// rounds over the data (intermediate cascades plus the final merge,
	// maximum of the two phases).
	Runs             int `json:"runs"`
	MergeGenerations int `json:"merge_generations"`
	// Spill bytes: logical (raw record stream) and physical (codec
	// frames actually hitting the disk), split by direction.
	SpillWriteBytes     int64 `json:"spill_write_bytes"`
	SpillReadBytes      int64 `json:"spill_read_bytes"`
	SpillPhysWriteBytes int64 `json:"spill_phys_write_bytes"`
	SpillPhysReadBytes  int64 `json:"spill_phys_read_bytes"`
	// MaxDegree and DegreeHist summarise the out-degree distribution
	// seen during the merge pass (DegreeHist[k] counts vertices with
	// out-degree in [2^(k-1), 2^k); bucket 0 is isolated vertices).
	// The histogram is what sizes the range partitioner's input: it is
	// computed in O(1) memory from the sorted stream's run lengths.
	MaxDegree  int       `json:"max_degree"`
	DegreeHist [33]int64 `json:"degree_hist"`
}

// BuildFromStream sniffs and parses r (text, binary, gzip-wrapped) and
// builds the full entry layout under o.Dir within o.MemBudget.
func BuildFromStream(o Options, r io.Reader) (*Stats, error) {
	b, err := newBuilder(o)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	n, parsed, err := parseStream(r, b.add)
	if err != nil {
		return nil, err
	}
	b.stats.ParsedEdges = parsed
	return b.finish(n)
}

// BuildFromGraph builds the same entry layout from an in-memory graph —
// the catalog's legacy ingest path, routed through the identical
// pipeline so both paths produce bit-identical files.
func BuildFromGraph(o Options, g *graph.Graph) (*Stats, error) {
	b, err := newBuilder(o)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	for v := 0; v < g.NumVertices; v++ {
		for _, h := range g.OutEdges(graph.VertexID(v)) {
			if err := b.add(uint32(v), uint32(h.Dst), h.Weight); err != nil {
				return nil, err
			}
		}
	}
	b.stats.ParsedEdges = int64(g.NumEdges())
	return b.finish(g.NumVertices)
}

type builder struct {
	o        Options
	spillDir string
	sa       *sorter // phase A: (src, dst, weight) order
	stats    Stats
}

func newBuilder(o Options) (*builder, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("ingest: staging directory is required")
	}
	if o.Workers <= 0 {
		return nil, fmt.Errorf("ingest: %d workers", o.Workers)
	}
	if o.BlocksPer <= 0 {
		o.BlocksPer = 1
	}
	if o.Codec == nil {
		o.Codec = codec.None
	}
	if o.LayoutCT == nil {
		o.LayoutCT = &diskio.Counter{}
	}
	if o.SpillCT == nil {
		o.SpillCT = &diskio.Counter{}
	}
	if o.SpillCT.Phys() == nil {
		o.SpillCT.SetPhys(&diskio.Counter{})
	}
	spillDir := filepath.Join(o.Dir, SpillDirName)
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	return &builder{
		o:        o,
		spillDir: spillDir,
		sa:       newSorter(spillDir, "a", o.SpillCT, o.Codec, o.MemBudget),
	}, nil
}

// add accepts one parsed edge. Self-loops are dropped here (matching
// graph.Builder's cleaning); out-of-range drops must wait for the final
// vertex count and happen during the merge.
func (b *builder) add(src, dst uint32, w float32) error {
	if src == dst {
		b.stats.SelfLoops++
		return nil
	}
	return b.sa.add(rec{0, 0, src, dst, math.Float32bits(w)})
}

func (b *builder) cleanup() {
	os.RemoveAll(b.spillDir)
}

// finish runs the two merge phases: phase A streams the (src, dst,
// weight)-sorted edges into graph.el, the per-worker adjacency files
// and the degree histogram while refeeding a second sorter in VE-BLOCK
// key order; phase B streams that order into the per-worker Eblock
// files. n is the final vertex count.
func (b *builder) finish(n int) (*Stats, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty input (no vertices)", ErrFormat)
	}
	if b.o.Workers > n {
		return nil, fmt.Errorf("ingest: %d workers for %d vertices", b.o.Workers, n)
	}
	b.stats.Vertices = n
	parts := graph.RangePartition(n, b.o.Workers)
	blocksPer := make([]int, b.o.Workers)
	for i := range blocksPer {
		blocksPer[i] = b.o.BlocksPer
	}
	layout, err := veblock.NewLayout(parts, blocksPer)
	if err != nil {
		return nil, err
	}
	sb := newSorter(b.spillDir, "b", b.o.SpillCT, b.o.Codec, b.o.MemBudget)
	if err := b.mergeA(n, parts, layout, sb); err != nil {
		return nil, err
	}
	if err := b.mergeB(sb); err != nil {
		return nil, err
	}
	b.stats.Runs = b.sa.spilled + sb.spilled
	b.stats.MergeGenerations = b.sa.gens
	if sb.gens > b.stats.MergeGenerations {
		b.stats.MergeGenerations = sb.gens
	}
	b.stats.SpillWriteBytes = b.o.SpillCT.Bytes(diskio.SeqWrite)
	b.stats.SpillReadBytes = b.o.SpillCT.Bytes(diskio.SeqRead)
	if p := b.o.SpillCT.Phys(); p != nil {
		b.stats.SpillPhysWriteBytes = p.Bytes(diskio.SeqWrite)
		b.stats.SpillPhysReadBytes = p.Bytes(diskio.SeqRead)
	}
	return &b.stats, nil
}

// mergeA drains the phase-A sort: one pass over the globally sorted
// edge stream writes graph.el and each worker's adj.dat shard by shard,
// folds the out-degree histogram from run lengths, and feeds the
// phase-B sorter with VE-BLOCK keys.
func (b *builder) mergeA(n int, parts []graph.Partition, layout *veblock.Layout, sb *sorter) error {
	it, err := b.sa.finish()
	if err != nil {
		return err
	}
	defer it.close()

	elF, err := os.Create(filepath.Join(b.o.Dir, "graph.el"))
	if err != nil {
		return err
	}
	defer elF.Close()
	elW := bufio.NewWriterSize(elF, 1<<16)
	if _, err := fmt.Fprintf(elW, "# vertices %d\n", n); err != nil {
		return err
	}

	openAdj := func(w int) (storeWriter, error) {
		wdir := filepath.Join(b.o.Dir, fmt.Sprintf("w%d", w))
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return nil, err
		}
		return newStoreWriter(filepath.Join(wdir, "adj.dat"), b.o.LayoutCT, b.o.Codec)
	}
	cur := 0
	aw, err := openAdj(0)
	if err != nil {
		return err
	}
	closeAll := func() error {
		// Close the open shard and create the remaining workers' files
		// (possibly empty — a worker owning only isolated vertices still
		// gets its adj.dat, exactly as the per-worker builders would).
		if err := aw.Close(); err != nil {
			return err
		}
		for cur++; cur < b.o.Workers; cur++ {
			w, err := openAdj(cur)
			if err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
		}
		return nil
	}

	var line []byte
	var eb [8]byte
	var lastSrc uint32
	runLen := 0
	var distinct int64
	bumpHist := func() {
		if runLen == 0 {
			return
		}
		b.stats.DegreeHist[bits.Len(uint(runLen))]++
		if runLen > b.stats.MaxDegree {
			b.stats.MaxDegree = runLen
		}
		distinct++
		runLen = 0
	}
	for {
		r, ok, err := it.next()
		if err != nil {
			aw.Close()
			return err
		}
		if !ok {
			break
		}
		if int(r.src) >= n || int(r.dst) >= n {
			b.stats.OutOfRange++
			continue
		}
		// graph.el line, identical to WriteEdgeList's "%d %d %g\n".
		line = strconv.AppendUint(line[:0], uint64(r.src), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(r.dst), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, float64(math.Float32frombits(r.w)), 'g', -1, 32)
		line = append(line, '\n')
		if _, err := elW.Write(line); err != nil {
			aw.Close()
			return err
		}
		// Advance to the owning worker's shard (src ascends, so shards
		// complete in order).
		for graph.VertexID(r.src) >= parts[cur].Hi {
			if err := aw.Close(); err != nil {
				return err
			}
			cur++
			if aw, err = openAdj(cur); err != nil {
				return err
			}
		}
		le.PutUint32(eb[0:], r.dst)
		le.PutUint32(eb[4:], r.w)
		if _, err := aw.Write(eb[:]); err != nil {
			aw.Close()
			return err
		}
		if b.stats.Edges == 0 || r.src != lastSrc {
			bumpHist()
			lastSrc = r.src
		}
		runLen++
		// VE-BLOCK key: (owner, destination block, source); the source
		// block needs no field of its own — it ascends with src.
		ib := layout.BlockOf(graph.VertexID(r.dst))
		if err := sb.add(rec{uint32(cur), uint32(ib), r.src, r.dst, r.w}); err != nil {
			aw.Close()
			return err
		}
		b.stats.Edges++
	}
	bumpHist()
	b.stats.DegreeHist[0] += int64(n) - distinct
	if err := closeAll(); err != nil {
		return err
	}
	if err := elW.Flush(); err != nil {
		return err
	}
	return elF.Close()
}

// mergeB drains the phase-B sort: the (owner, dstBlock, src, dst, weight)
// order — src ascending carries srcBlock with it — is exactly the
// destination-major VE-BLOCK file layout (veblock.Store), so one pass
// writes each worker's veblock.dat: fragments of same-source edges
// prefixed by their (svertex, count) auxiliary record.
func (b *builder) mergeB(sb *sorter) error {
	it, err := sb.finish()
	if err != nil {
		return err
	}
	defer it.close()

	openVE := func(w int) (storeWriter, error) {
		return newStoreWriter(filepath.Join(b.o.Dir, fmt.Sprintf("w%d", w), "veblock.dat"),
			b.o.LayoutCT, b.o.Codec)
	}
	cur := 0
	vw, err := openVE(0)
	if err != nil {
		return err
	}
	// One fragment is buffered at a time: its (svertex, count) auxiliary
	// record precedes the edges, and the count is only known when the
	// (owner, dstBlock, src) key changes. The buffer is bounded by
	// the largest single-vertex edge run into one block, not the budget.
	var frag []byte
	var fragKey [3]uint32
	fragCount := 0
	flushFrag := func() error {
		if fragCount == 0 {
			return nil
		}
		var aux [veblock.FragAuxSize]byte
		le.PutUint32(aux[0:], fragKey[2])
		le.PutUint32(aux[4:], uint32(fragCount))
		if _, err := vw.Write(aux[:]); err != nil {
			return err
		}
		if _, err := vw.Write(frag); err != nil {
			return err
		}
		frag = frag[:0]
		fragCount = 0
		return nil
	}
	var eb [8]byte
	for {
		r, ok, err := it.next()
		if err != nil {
			vw.Close()
			return err
		}
		if !ok {
			break
		}
		key := [3]uint32{r.a, r.b, r.src}
		if fragCount > 0 && key != fragKey {
			if err := flushFrag(); err != nil {
				vw.Close()
				return err
			}
		}
		// The fragment was flushed to its own worker's shard; only now
		// may the shard advance.
		for int(r.a) > cur {
			if err := vw.Close(); err != nil {
				return err
			}
			cur++
			if vw, err = openVE(cur); err != nil {
				return err
			}
		}
		fragKey = key
		le.PutUint32(eb[0:], r.dst)
		le.PutUint32(eb[4:], r.w)
		frag = append(frag, eb[:]...)
		fragCount++
	}
	if err := flushFrag(); err != nil {
		vw.Close()
		return err
	}
	if err := vw.Close(); err != nil {
		return err
	}
	for cur++; cur < b.o.Workers; cur++ {
		w, err := openVE(cur)
		if err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// storeWriter is the streaming store sink: a raw accounted file or a
// codec BlockWriter, both charged as one sequential logical write.
type storeWriter interface {
	io.Writer
	Close() error
}

func newStoreWriter(path string, ct *diskio.Counter, cdc codec.Codec) (storeWriter, error) {
	if !codec.IsNone(cdc) {
		return codec.NewBlockWriter(path, ct, cdc)
	}
	f, err := diskio.Create(path, ct)
	if err != nil {
		return nil, err
	}
	return &rawStoreWriter{f: f, buf: make([]byte, 0, 32<<10)}, nil
}

type rawStoreWriter struct {
	f   *diskio.File
	buf []byte
	off int64
}

func (w *rawStoreWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		take := cap(w.buf) - len(w.buf)
		if take > len(p) {
			take = len(p)
		}
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		if len(w.buf) == cap(w.buf) {
			if err := w.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

func (w *rawStoreWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAtClass(w.buf, w.off, diskio.SeqWrite); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

func (w *rawStoreWriter) Close() error {
	err := w.flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
