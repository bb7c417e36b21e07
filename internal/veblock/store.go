package veblock

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hybridgraph/internal/bitset"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

const (
	// FragAuxSize is the on-disk size of a fragment's auxiliary data
	// (svertex id + clustered edge count), the paper's S_f.
	FragAuxSize = 8
	edgeSize    = 8 // dst uint32 + weight float32

	// scanWindow is what one physical read of a scan moves: a codec chunk.
	scanWindow = codec.ChunkSize
)

// BlockMeta is the part of the paper's X_j metadata for one Vblock that
// something reads: kept in memory on the owning worker ("the memory for
// metadata ... is negligible"). X_j's vertex count and in/out-degree
// counters are charged by MetaMemBytes but not kept.
type BlockMeta struct {
	Bitmap *bitset.Set // bit i set ⇔ Eblock g_ji is non-empty
}

type span struct {
	off   int64
	size  int64
	frags int32
	edges int32
}

// Store is one worker's share of VE-BLOCK: the Eblocks of its local
// Vblocks plus their metadata. Vertex values live in the shared
// vertexfile.Store; this type only handles edges and metadata. The file
// is destination-block-major — all Eblocks toward block 0, local source
// blocks ascending, then all toward block 1, … — so a pull request for
// block i reads one contiguous run (DESIGN.md, "VE-BLOCK file order").
type Store struct {
	layout *Layout
	f      codec.Reader // the Eblock file, raw or compressed
	firstB int          // global id of first local block
	nLocal int          // number of local blocks
	meta   []BlockMeta
	spans  [][]span // spans[j][i]: Eblock g_{(firstB+j), i}
	frags  int64    // total fragments on this worker (contributes to f)
	edges  int64    // total edges stored
}

// scanBufs lends ScanEblock its scan buffers.
var scanBufs = sync.Pool{New: func() any { return new(ScanBuf) }}

// Build constructs worker w's VE-BLOCK file at path from the staged graph.
// Edges are grouped into Eblocks by (source block, destination block) and
// clustered into per-svertex fragments, then written in one sequential
// pass — the "VE-BLOCK" loading path of Fig. 16.
func Build(path string, ct *diskio.Counter, g *graph.Graph, layout *Layout, w int, cdc codec.Codec) (*Store, error) {
	s, buf, err := assemble(g, layout, w, true)
	if err != nil {
		return nil, err
	}
	if s.f, err = codec.CreateReader(path, ct, cdc, buf); err != nil {
		return nil, err
	}
	return s, nil
}

// Open opens a previously built VE-BLOCK file read-only. The span index
// and X_j metadata are recomputed from the staged graph — they are a
// deterministic function of (g, layout, w), so the catalog need not
// persist them. The file size must match the index; deeper integrity is
// the manifest CRC's job.
func Open(path string, ct *diskio.Counter, g *graph.Graph, layout *Layout, w int, cdc codec.Codec) (*Store, error) {
	s, _, err := assemble(g, layout, w, false)
	if err != nil {
		return nil, err
	}
	f, err := codec.OpenReader(path, ct, cdc)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size != s.SizeBytes() {
		f.Close()
		return nil, fmt.Errorf("veblock: %s is %d bytes, layout expects %d", path, size, s.SizeBytes())
	}
	s.f = f
	return s, nil
}

// assemble computes worker w's span index, X_j metadata and totals from
// the staged graph — per-Eblock counts suffice — and, when image is set,
// lays the Eblock bytes out as well.
func assemble(g *graph.Graph, layout *Layout, w int, image bool) (*Store, []byte, error) {
	lo, hi := layout.WorkerBlocks(w)
	v := layout.NumBlocks()
	s := &Store{
		layout: layout,
		firstB: lo,
		nLocal: hi - lo,
		meta:   make([]BlockMeta, hi-lo),
		spans:  make([][]span, hi-lo),
	}
	// walk visits the worker's out-edges in (source block, source,
	// adjacency) order; opens marks the first edge of a fragment.
	walk := func(fn func(j, i int, u graph.VertexID, h graph.Half, opens bool)) error {
		opened := make([]graph.VertexID, v) // opened[i] == u+1: u has a fragment in g_{j,i}
		for j := 0; j < s.nLocal; j++ {
			blk := layout.Blocks[lo+j]
			for u := blk.Lo; u < blk.Hi; u++ {
				for _, h := range g.OutEdges(u) {
					db := layout.BlockOf(h.Dst)
					if db < 0 {
						return fmt.Errorf("veblock: edge (%d,%d) destination outside layout", u, h.Dst)
					}
					opens := opened[db] != u+1
					opened[db] = u + 1
					fn(j, db, u, h, opens)
				}
			}
		}
		return nil
	}
	for j := range s.meta {
		s.meta[j].Bitmap = bitset.New(v)
		s.spans[j] = make([]span, v)
	}
	err := walk(func(j, i int, _ graph.VertexID, _ graph.Half, opens bool) {
		sp := &s.spans[j][i]
		if opens {
			sp.frags++
		}
		sp.edges++
	})
	if err != nil {
		return nil, nil, err
	}
	// Destination-major file order: a pull for block i is one run.
	var off int64
	for i := 0; i < v; i++ {
		for j := 0; j < s.nLocal; j++ {
			sp := &s.spans[j][i]
			sp.off = off
			sp.size = int64(sp.frags)*FragAuxSize + int64(sp.edges)*edgeSize
			off += sp.size
			if sp.edges > 0 {
				s.meta[j].Bitmap.Set(i)
			}
			s.frags += int64(sp.frags)
			s.edges += int64(sp.edges)
		}
	}
	if !image {
		return s, nil, nil
	}
	// A fragment's aux record is written when it opens, its count bumped
	// per edge; walk ascends by source, so each Eblock's fragments do.
	buf := make([]byte, off)
	next := make([]int64, 0, s.nLocal*v) // write position within g_{j,i}, at [j*v+i]
	for j := range s.spans {
		for i := range s.spans[j] {
			next = append(next, s.spans[j][i].off)
		}
	}
	aux := make([]int64, v) // where destination block i's open fragment began
	_ = walk(func(j, i int, u graph.VertexID, h graph.Half, opens bool) {
		at := &next[j*v+i]
		if opens {
			aux[i] = *at
			binary.LittleEndian.PutUint32(buf[*at:], uint32(u))
			*at += FragAuxSize
		}
		cnt := buf[aux[i]+4:]
		binary.LittleEndian.PutUint32(cnt, binary.LittleEndian.Uint32(cnt)+1)
		binary.LittleEndian.PutUint32(buf[*at:], uint32(h.Dst))
		binary.LittleEndian.PutUint32(buf[*at+4:], math.Float32bits(h.Weight))
		*at += edgeSize
	})
	return s, buf, nil
}

// Path names the store's file.
func (s *Store) Path() string { return s.f.Name() }

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// LocalBlocks reports the number of Vblocks this worker owns.
func (s *Store) LocalBlocks() int { return s.nLocal }

// FirstBlock reports the global id of the worker's first block.
func (s *Store) FirstBlock() int { return s.firstB }

// Fragments reports this worker's total fragment count (its share of the
// paper's f).
func (s *Store) Fragments() int64 { return s.frags }

// Edges reports the number of edges stored.
func (s *Store) Edges() int64 { return s.edges }

// SizeBytes reports the store's Eblock bytes, its logical file size.
func (s *Store) SizeBytes() int64 { return s.frags*FragAuxSize + s.edges*edgeSize }

// Meta returns the metadata X_j of local block j (0-based local index).
func (s *Store) Meta(j int) *BlockMeta { return &s.meta[j] }

// EblockSize reports the on-disk byte size and fragment count of Eblock
// g_{j,i} (local j, global destination i) without reading it. Hybrid uses
// these to estimate Cio(b-pull) while running push (Section 5.3).
func (s *Store) EblockSize(j, i int) (bytes int64, frags int32, edges int32) {
	sp := s.spans[j][i]
	return sp.size, sp.frags, sp.edges
}

// ScanStats reports what a scan actually read, split into the paper's
// I/O components: fragment auxiliary bytes IO(F^t) and edge bytes
// (part of IO(Ē^t)).
type ScanStats struct {
	FragBytes int64
	EdgeBytes int64
	Fragments int
}

// ScanBuf is the scratch a stream of scans works in, lent to one call at
// a time: a window onto the Eblock file and the edge list handed to the
// callback. The window outlives the call, so a reader pulling adjacent
// blocks continues where it stopped. Truncating Bytes empties it.
type ScanBuf struct {
	Bytes  []byte // file bytes [off, off+len(Bytes)) of src
	Halves []graph.Half
	src    *Store
	off    int64
}

// ScanEblock sequentially reads Eblock g_{j,i} and invokes fn once per
// fragment with the source vertex and its clustered edges. The edges slice
// is reused across calls. Returns per-component byte counts.
func (s *Store) ScanEblock(j, i int, fn func(src graph.VertexID, edges []graph.Half) error) (ScanStats, error) {
	if j < 0 || j >= s.nLocal {
		return ScanStats{}, fmt.Errorf("veblock: eblock (%d,%d) out of range", j, i)
	}
	sb := scanBufs.Get().(*ScanBuf)
	defer scanBufs.Put(sb)
	return s.ScanBlock(i, sb, func(k int) bool { return k == j }, func(graph.VertexID) bool { return true }, fn)
}

// ScanBlock serves one pull request for destination block i: the Eblocks
// g_{j,i} of every local j that want admits, in ascending j — ascending
// file offset — as one forward pass through sb's window. Each non-empty
// Eblock is charged one sequential read of its length; the bytes move a
// window at a time (DESIGN.md, "Charge model vs physical execution"). fn
// runs once per fragment whose source keep admits; its edges are sb's,
// overwritten by the next. The edges of the other fragments are stepped
// over undecoded, through the same windows, and counted in the stats all
// the same.
func (s *Store) ScanBlock(i int, sb *ScanBuf, want func(j int) bool, keep func(src graph.VertexID) bool,
	fn func(src graph.VertexID, edges []graph.Half) error) (ScanStats, error) {
	var st ScanStats
	if i < 0 || i >= s.layout.NumBlocks() {
		return st, fmt.Errorf("veblock: destination block %d out of range", i)
	}
	for j := 0; j < s.nLocal; j++ {
		sp := s.spans[j][i]
		if sp.size == 0 || !want(j) {
			continue
		}
		for pos, end := sp.off, sp.off+sp.size; pos < end; {
			b, err := s.window(sb, pos)
			if err != nil {
				return st, err
			}
			src := graph.VertexID(binary.LittleEndian.Uint32(b))
			left := int64(binary.LittleEndian.Uint32(b[4:]))
			pos += FragAuxSize
			if pos+left*edgeSize > end {
				return st, fmt.Errorf("veblock: eblock (%d,%d): fragment of %d edges overruns the block", j, i, left)
			}
			st.FragBytes += FragAuxSize
			st.EdgeBytes += left * edgeSize
			st.Fragments++
			// A fragment's edges may continue into the next window.
			decode := keep(src)
			sb.Halves = sb.Halves[:0]
			for left > 0 {
				if b, err = s.window(sb, pos); err != nil {
					return st, err
				}
				b = b[:min(left, int64(len(b))/edgeSize)*edgeSize]
				for o := 0; decode && o < len(b); o += edgeSize {
					sb.Halves = append(sb.Halves, graph.Half{
						Dst:    graph.VertexID(binary.LittleEndian.Uint32(b[o:])),
						Weight: math.Float32frombits(binary.LittleEndian.Uint32(b[o+4:])),
					})
				}
				pos += int64(len(b))
				left -= int64(len(b)) / edgeSize
			}
			if !decode {
				continue
			}
			if err := fn(src, sb.Halves); err != nil {
				return st, err
			}
		}
		s.f.Charge(sp.size, sp.off, diskio.SeqRead)
	}
	return st, nil
}

// window returns the Eblock bytes from pos, a record boundary inside the
// store, to the end of the window holding it. Windows sit on a scanWindow
// grid — one aligned read of a raw file, one chunk of a compressed one
// inflated in place — so what a stream of scans physically reads depends
// only on the offsets it asks for.
func (s *Store) window(sb *ScanBuf, pos int64) ([]byte, error) {
	if sb.src != s || pos < sb.off || pos >= sb.off+int64(len(sb.Bytes)) {
		base := pos - pos%scanWindow
		sb.src, sb.off = s, base
		var err error
		if sb.Bytes, err = codec.ReadWindow(s.f, sb.Bytes, base, min(base+scanWindow, s.SizeBytes())); err != nil {
			return nil, err
		}
	}
	return sb.Bytes[pos-sb.off:], nil
}

// MetaMemBytes reports the in-memory footprint of the X_j metadata as the
// paper defines it — vertex count, in/out degree, bitmap and res indicator
// per Vblock (Section 4.1). The span index is an implementation aid, not
// part of X_j, and is excluded so the Fig. 23/24 memory curves measure
// what the paper measured (message buffers dominating at small V).
func (s *Store) MetaMemBytes() int64 {
	var b int64
	for j := range s.meta {
		b += 8*3 + 1 // #, ind, outd counters and the res indicator
		b += s.meta[j].Bitmap.MemBytes()
	}
	return b
}

// SetMetrics wires a compressed store's chunk counters into reg.
func (s *Store) SetMetrics(reg *obs.Registry) {
	if s == nil {
		return
	}
	if bf, ok := s.f.(*codec.BlockFile); ok {
		bf.SetMetrics(reg)
	}
}

// SetCounter retargets the store's I/O accounting.
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil {
		return
	}
	s.f.SetCounter(ct)
}
