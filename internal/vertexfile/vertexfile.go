// Package vertexfile implements the disk-resident vertex-value store every
// engine shares. One store holds the records for one worker's contiguous
// vertex range.
//
// Record layout (32 bytes, fixed width, little endian):
//
//	id      uint32  — vertex id (redundant with position; kept for checks)
//	outdeg  uint32  — out-degree
//	val     float64 — the vertex value updated by update()/compute()
//	bcast0  float64 — broadcast value written at even supersteps
//	bcast1  float64 — broadcast value written at odd supersteps
//
// The two broadcast columns make block-centric pulling deterministic under
// BSP: update() at superstep t writes val and bcast[t mod 2], while
// pullRes() at superstep t reads bcast[(t-1) mod 2], so concurrent remote
// pulls never observe a half-updated superstep (see DESIGN.md,
// "Deviations"). The extra 8 bytes per vertex are charged to IO(Vt) like
// any other vertex byte.
package vertexfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// RecordSize is the fixed on-disk size of one vertex record.
const RecordSize = 32

// BcastSize is the number of bytes random-read per source vertex when
// pulling (one broadcast column), the paper's S_v.
const BcastSize = 8

// Record is the decoded form of one vertex record.
type Record struct {
	ID     graph.VertexID
	OutDeg uint32
	Val    float64
	Bcast  [2]float64
}

// Store is a disk-resident array of vertex records covering the id range
// [Lo, Lo+N).
type Store struct {
	f  *diskio.File
	lo graph.VertexID
	n  int
	// mem is non-nil for memory-resident stores (sufficient memory).
	// memMu serialises access: remote pullers read broadcast columns while
	// the owner's update scan writes records back.
	mem   []Record
	memMu sync.RWMutex

	// scan is ReadBcastRun's page buffer; see scanCache.
	scan scanCache
}

// rangeBufs lends ReadRange and WriteRange the byte buffers they encode
// through: as many as ranges are ever in flight at once (the update scan's
// shards), each grown to the largest range it has carried.
var rangeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Create builds a store at path for n vertices starting at id lo, writing
// the initial records sequentially. recs must have length n and be in id
// order.
func Create(path string, ct *diskio.Counter, lo graph.VertexID, recs []Record) (*Store, error) {
	f, err := diskio.Create(path, ct)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, lo: lo, n: len(recs)}
	buf := make([]byte, len(recs)*RecordSize)
	for i, r := range recs {
		if r.ID != lo+graph.VertexID(i) {
			f.Close()
			return nil, fmt.Errorf("vertexfile: record %d has id %d, want %d", i, r.ID, lo+graph.VertexID(i))
		}
		encode(buf[i*RecordSize:], r)
	}
	if _, err := f.WriteAtClass(buf, 0, diskio.SeqWrite); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the underlying file, if any.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// Lo reports the first vertex id held by the store.
func (s *Store) Lo() graph.VertexID { return s.lo }

// Len reports the number of records.
func (s *Store) Len() int { return s.n }

// Contains reports whether v is stored here.
func (s *Store) Contains(v graph.VertexID) bool {
	return v >= s.lo && int(v-s.lo) < s.n
}

// ReadRange sequentially reads records for ids [lo, hi) into recs (which
// must have length hi-lo). This is the update-phase scan, charged as
// sequential reads (part of IO(Vt)).
func (s *Store) ReadRange(lo, hi graph.VertexID, recs []Record) error {
	if err := s.checkRange(lo, hi, len(recs)); err != nil {
		return err
	}
	if s.mem != nil {
		s.memMu.RLock()
		copy(recs, s.mem[lo-s.lo:hi-s.lo])
		s.memMu.RUnlock()
		return nil
	}
	bp := rangeBufs.Get().(*[]byte)
	defer rangeBufs.Put(bp)
	*bp = slices.Grow((*bp)[:0], int(hi-lo)*RecordSize)[:int(hi-lo)*RecordSize]
	buf := *bp
	if _, err := s.f.ReadAtClass(buf, int64(lo-s.lo)*RecordSize, diskio.SeqRead); err != nil {
		return err
	}
	for i := range recs {
		recs[i] = decode(buf[i*RecordSize:])
	}
	return nil
}

// WriteRange sequentially writes back records for ids [lo, hi), the second
// half of the update-phase scan (also IO(Vt)).
func (s *Store) WriteRange(lo, hi graph.VertexID, recs []Record) error {
	if err := s.checkRange(lo, hi, len(recs)); err != nil {
		return err
	}
	if s.mem != nil {
		s.memMu.Lock()
		copy(s.mem[lo-s.lo:hi-s.lo], recs)
		s.memMu.Unlock()
		return nil
	}
	bp := rangeBufs.Get().(*[]byte)
	defer rangeBufs.Put(bp)
	*bp = slices.Grow((*bp)[:0], int(hi-lo)*RecordSize)[:int(hi-lo)*RecordSize]
	buf := *bp
	for i, r := range recs {
		encode(buf[i*RecordSize:], r)
	}
	off := int64(lo-s.lo) * RecordSize
	_, err := s.f.WriteAtClass(buf, off, diskio.SeqWrite)
	s.scan.invalidate(off, int64(len(buf)))
	return err
}

// ReadBcast random-reads the broadcast column of parity for vertex v: the
// per-svertex random read that pull and b-pull pay (IO(V_rr^t)).
func (s *Store) ReadBcast(v graph.VertexID, parity int) (float64, error) {
	if !s.Contains(v) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.RLock()
		val := s.mem[v-s.lo].Bcast[parity&1]
		s.memMu.RUnlock()
		return val, nil
	}
	var b [8]byte
	off := int64(v-s.lo)*RecordSize + 16 + int64(parity&1)*8
	if _, err := s.f.ReadAtClass(b[:], off, diskio.RandRead); err != nil {
		return 0, err
	}
	return float64FromBits(b[:]), nil
}

// PageSet tracks the 4 KiB pages one scan has already pulled into memory.
// Pull-Respond's svertex reads ascend within each Eblock scan, so the
// requested Vblock's pages stay hot for the duration of the scan — the
// locality VE-BLOCK exists to create. A fresh PageSet per scan models
// that; accesses without one pay a full page each.
type PageSet map[int64]bool

// ScanRun is one caller's tally of ReadBcastRun reads it has yet to charge:
// how many, their device bytes, and where the last one was.
type ScanRun struct{ count, dev, lastOff int64 }

// ReadBcastRun is ReadBcast with scan-local page accounting: the logical
// cost is one broadcast column, the device cost one page per page not yet
// in seen. The cost is tallied in run — one Pull-Respond request's reads —
// and charged by ChargeRun; the bytes move per page — a page the model
// calls hot is served from the store's page buffer, filled by one
// uncharged page read per miss. A read that fails is not tallied.
func (s *Store) ReadBcastRun(v graph.VertexID, parity int, seen PageSet, run *ScanRun) (float64, error) {
	if !s.Contains(v) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		return s.ReadBcast(v, parity)
	}
	off := int64(v-s.lo)*RecordSize + 16 + int64(parity&1)*8
	var dev int64
	if page := off / diskio.PageSize; !seen[page] {
		seen[page] = true
		dev = diskio.PageSize
	}
	val, err := s.scan.read(s.f, off)
	if err != nil {
		return 0, err
	}
	run.count, run.dev, run.lastOff = run.count+1, run.dev+dev, off
	return val, nil
}

// ChargeRun charges run's reads, exactly as charging each when it happened
// would have. Callers charge on their error paths too.
func (s *Store) ChargeRun(run *ScanRun) {
	if run.count > 0 {
		s.f.ChargeDevRun(BcastSize, int(run.count), run.lastOff, diskio.RandRead, run.dev)
	}
}

// scanCachePages bounds the page buffer: 128 pages (512 KiB) hold the
// records of 16384 vertices, a few Vblocks' worth of concurrent scans.
const scanCachePages = 128

// scanCache is a direct-mapped buffer of vertex-file pages serving
// ReadBcastRun. It is implementation memory, not model memory (the cost
// model already treats a scanned page as resident), so MemBytes does not
// count it. A cached page must never outlive a write to its bytes: the
// update scan rewrites broadcast columns while remote pulls read the
// other parity from the same page, and the column written now is the one
// read next superstep. Fills and invalidations therefore run under one
// lock, and a writer invalidates after its write has reached the file —
// a fill that raced the write is either dropped by the invalidation or
// ordered after it and so reads the new bytes.
type scanCache struct {
	mu    sync.Mutex
	pages []scanPage // allocated at the first scan read; slot = page % scanCachePages
	reads *obs.Counter
}

type scanPage struct {
	page int64 // file page held, -1 when empty
	n    int   // valid bytes
	data [diskio.PageSize]byte
}

// read returns the 8-byte column at file offset off.
func (c *scanCache) read(f *diskio.File, off int64) (float64, error) {
	page, in := off/diskio.PageSize, int(off%diskio.PageSize)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pages == nil {
		c.pages = make([]scanPage, scanCachePages)
		for i := range c.pages {
			c.pages[i].page = -1
		}
	}
	sp := &c.pages[page%scanCachePages]
	if sp.page != page {
		sp.page = -1
		n, err := f.ReadUncharged(sp.data[:], page*diskio.PageSize, diskio.RandRead)
		if err != nil && !errors.Is(err, io.EOF) { // the file's last page is short
			return 0, err
		}
		sp.page, sp.n = page, n
		c.reads.Inc()
	}
	if sp.n < in+BcastSize {
		return 0, fmt.Errorf("vertexfile: %s: short page %d (%d bytes)", f.Name(), page, sp.n)
	}
	return float64FromBits(sp.data[in : in+BcastSize]), nil
}

// invalidate drops every cached page overlapping file bytes [off, off+n).
func (c *scanCache) invalidate(off, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pages == nil {
		return
	}
	for p, last := off/diskio.PageSize, (off+n-1)/diskio.PageSize; p <= last; p++ {
		if sp := &c.pages[p%scanCachePages]; sp.page == p {
			sp.page = -1
		}
	}
}

// SetMetrics wires the store's physical scan reads into reg as
// "vertexfile.scan_page_reads" — the page fills behind the per-read
// logical charges. A nil registry disables the counter.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.scan.mu.Lock()
	s.scan.reads = reg.Counter("vertexfile.scan_page_reads")
	s.scan.mu.Unlock()
}

// WriteRecord random-writes one full record (the pull baseline's
// per-active-vertex apply when few vertices are active).
func (s *Store) WriteRecord(r Record) error {
	if !s.Contains(r.ID) {
		return fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", r.ID, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.Lock()
		s.mem[r.ID-s.lo] = r
		s.memMu.Unlock()
		return nil
	}
	var b [RecordSize]byte
	encode(b[:], r)
	off := int64(r.ID-s.lo) * RecordSize
	_, err := s.f.WriteAtClass(b[:], off, diskio.RandWrite)
	s.scan.invalidate(off, RecordSize)
	return err
}

// ReadRecord random-reads one full record.
func (s *Store) ReadRecord(v graph.VertexID) (Record, error) {
	if !s.Contains(v) {
		return Record{}, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.RLock()
		r := s.mem[v-s.lo]
		s.memMu.RUnlock()
		return r, nil
	}
	var b [RecordSize]byte
	if _, err := s.f.ReadAtClass(b[:], int64(v-s.lo)*RecordSize, diskio.RandRead); err != nil {
		return Record{}, err
	}
	return decode(b[:]), nil
}

func (s *Store) checkRange(lo, hi graph.VertexID, n int) error {
	if lo < s.lo || hi < lo || int(hi-s.lo) > s.n || int(hi-lo) != n {
		return fmt.Errorf("vertexfile: bad range [%d,%d) (store [%d,%d), buf %d)",
			lo, hi, s.lo, int(s.lo)+s.n, n)
	}
	return nil
}

func encode(b []byte, r Record) {
	binary.LittleEndian.PutUint32(b[0:], uint32(r.ID))
	binary.LittleEndian.PutUint32(b[4:], r.OutDeg)
	binary.LittleEndian.PutUint64(b[8:], float64Bits(r.Val))
	binary.LittleEndian.PutUint64(b[16:], float64Bits(r.Bcast[0]))
	binary.LittleEndian.PutUint64(b[24:], float64Bits(r.Bcast[1]))
}

func decode(b []byte) Record {
	return Record{
		ID:     graph.VertexID(binary.LittleEndian.Uint32(b[0:])),
		OutDeg: binary.LittleEndian.Uint32(b[4:]),
		Val:    float64FromBitsU(binary.LittleEndian.Uint64(b[8:])),
		Bcast: [2]float64{
			float64FromBitsU(binary.LittleEndian.Uint64(b[16:])),
			float64FromBitsU(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// SetCounter retargets the store's I/O accounting (no-op for
// memory-resident stores). Used to separate loading cost from
// computation cost.
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil || s.f == nil {
		return
	}
	s.f.SetCounter(ct)
}
