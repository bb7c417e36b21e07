// Package adjstore implements the Giraph-style on-disk adjacency list used
// by the push engines (and by hybrid when it runs push supersteps): for
// each vertex a run of out-edges, addressed through an in-memory offset
// index. The paper stores edges twice in HybridGraph — once here, once in
// VE-BLOCK — because pushRes() needs all out-edges of one vertex together
// while b-pull needs them clustered by destination block (Section 5.2,
// "Data Storage").
package adjstore

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

const edgeSize = 8 // dst uint32 + weight float32

// Store holds the out-edges of one worker's vertex range [Lo, Lo+N).
type Store struct {
	f      codec.Reader // the run file, raw or compressed
	lo     graph.VertexID
	offs   []int64 // len N+1, byte offsets into the file
	nEdges int64
	memG   *graph.Graph // non-nil for memory-resident stores

	ownMu sync.Mutex
	own   PageBuf // Edges' buffer, for callers that bring none
}

// pageBufSize is the grid a scan's reads sit on: a compressed file's chunk.
const pageBufSize = codec.ChunkSize

// PageBuf is one reader's window onto an adjacency file: the bytes
// [Off, Off+len(Bytes)) of Src. A scan in ascending vertex order — a shard
// of push's update scan — passes the same one to every EdgesBuf call and
// so moves the file a window at a time. The zero value is empty.
type PageBuf struct {
	Src   *Store
	Off   int64
	Bytes []byte
}

// Build writes the adjacency runs for partition part of g to path and
// returns the opened store. The write is one sequential pass, mirroring
// the paper's Fig. 16 "adj" loading path; under a non-trivial codec the
// same pass is stored as compressed chunk frames with the logical
// charge unchanged.
func Build(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	n := part.Len()
	s := &Store{lo: part.Lo, offs: make([]int64, n+1)}
	// Buffer whole partition; partitions are modest at our scales.
	var buf []byte
	var off int64
	for i := 0; i < n; i++ {
		v := part.Lo + graph.VertexID(i)
		s.offs[i] = off
		for _, h := range g.OutEdges(v) {
			var rec [edgeSize]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(h.Dst))
			binary.LittleEndian.PutUint32(rec[4:], floatBits(h.Weight))
			buf = append(buf, rec[:]...)
			off += edgeSize
			s.nEdges++
		}
	}
	s.offs[n] = off
	var err error
	if s.f, err = codec.CreateReader(path, ct, cdc, buf); err != nil {
		return nil, err
	}
	return s, nil
}

// BuildReverse is Build over the transpose: it stores, for each vertex of
// the partition, its *in*-edges (sources as Dst fields). The pull baseline
// gathers along in-edges.
func BuildReverse(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	return Build(path, ct, g.Reverse(), part, cdc)
}

// Open opens a previously built adjacency file read-only, recomputing the
// offset index from the staged graph — the index is a deterministic
// function of (g, part), so the catalog need not persist it. The file size
// must match the index; deeper integrity is the manifest CRC's job.
func Open(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	f, err := codec.OpenReader(path, ct, cdc)
	if err != nil {
		return nil, err
	}
	n := part.Len()
	s := &Store{f: f, lo: part.Lo, offs: make([]int64, n+1)}
	var off int64
	for i := 0; i < n; i++ {
		s.offs[i] = off
		d := g.OutDegree(part.Lo + graph.VertexID(i))
		off += int64(d) * edgeSize
		s.nEdges += int64(d)
	}
	s.offs[n] = off
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size != off {
		f.Close()
		return nil, fmt.Errorf("adjstore: %s is %d bytes, index expects %d", path, size, off)
	}
	return s, nil
}

// SizeBytes reports the store's edge-run bytes (the on-disk file size for
// file-backed stores).
func (s *Store) SizeBytes() int64 { return s.nEdges * edgeSize }

// Close releases the underlying file, if any.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// Lo reports the first vertex id in the store.
func (s *Store) Lo() graph.VertexID { return s.lo }

// Len reports the number of vertices covered.
func (s *Store) Len() int { return len(s.offs) - 1 }

// NumEdges reports the number of stored edges.
func (s *Store) NumEdges() int64 { return s.nEdges }

// Degree reports the out-degree of v without touching disk (the index is
// in memory, like Hama's edge-offset table).
func (s *Store) Degree(v graph.VertexID) (int, error) {
	i, err := s.idx(v)
	if err != nil {
		return 0, err
	}
	return int((s.offs[i+1] - s.offs[i]) / edgeSize), nil
}

// EdgeBytes reports the on-disk byte size of v's edge run, used by hybrid
// to estimate IO(Et) for push without running it.
func (s *Store) EdgeBytes(v graph.VertexID) (int64, error) {
	i, err := s.idx(v)
	if err != nil {
		return 0, err
	}
	return s.offs[i+1] - s.offs[i], nil
}

// Edges reads v's out-edges, appending to dst and returning it. Reads are
// charged as sequential: push streams the edge file in vertex-id order, and
// the paper's Eq. 11 accounts IO(Et) at sequential-read throughput.
func (s *Store) Edges(v graph.VertexID, dst []graph.Half) ([]graph.Half, error) {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	return s.EdgesBuf(v, dst, &s.own)
}

// EdgesBuf is Edges through the caller's window: the charge is v's run,
// one sequential read of its length, wherever the bytes come from
// (DESIGN.md, "Charge model vs physical execution"). A run outside the
// window refills it with one uncharged read: an aligned page, or just the
// run after a jump far ahead (a sparse frontier).
func (s *Store) EdgesBuf(v graph.VertexID, dst []graph.Half, pb *PageBuf) ([]graph.Half, error) {
	i, err := s.idx(v)
	if err != nil {
		return dst, err
	}
	if s.memG != nil {
		return append(dst, s.memG.OutEdges(v)...), nil
	}
	off, length := s.offs[i], s.offs[i+1]-s.offs[i]
	// A run that crosses a page boundary is decoded a window at a time, so
	// a forward scan reads — and a compressed file inflates — each page once.
	for pos, end := off, off+length; pos < end; {
		if wEnd := pb.Off + int64(len(pb.Bytes)); pb.Src != s || pos < pb.Off || pos >= wEnd {
			lo, hi := pos, end
			if jumped := pb.Src == s && pos >= wEnd+pageBufSize; !jumped {
				lo -= lo % pageBufSize
				hi = min(lo+pageBufSize, s.offs[len(s.offs)-1])
			}
			pb.Src, pb.Off = s, lo
			if pb.Bytes, err = codec.ReadWindow(s.f, pb.Bytes, lo, hi); err != nil {
				return dst, err
			}
		}
		run := pb.Bytes[pos-pb.Off:]
		run = run[:min(int64(len(run)), end-pos)]
		for o := 0; o < len(run); o += edgeSize {
			dst = append(dst, graph.Half{
				Dst:    graph.VertexID(binary.LittleEndian.Uint32(run[o:])),
				Weight: floatFromBits(binary.LittleEndian.Uint32(run[o+4:])),
			})
		}
		pos += int64(len(run))
	}
	if length > 0 {
		s.f.Charge(length, off, diskio.SeqRead)
	}
	return dst, nil
}

func (s *Store) idx(v graph.VertexID) (int, error) {
	if v < s.lo || int(v-s.lo) >= s.Len() {
		return 0, fmt.Errorf("adjstore: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.Len())
	}
	return int(v - s.lo), nil
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

// SetCounter retargets the store's I/O accounting (no-op for
// memory-resident stores).
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil || s.f == nil {
		return
	}
	s.f.SetCounter(ct)
}
