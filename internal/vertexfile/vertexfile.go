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
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/freelist"
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

	columnReads *obs.Counter
}

// rangeBufs lends ReadRange, WriteRange and ReadColumn the byte buffers
// they encode through: as many as ranges are ever in flight at once (the
// update scan's shards and a column copy). It keeps 16 idle buffers at
// most, none over maxKeptRange bytes.
var rangeBufs = freelist.New[[]byte](16)

// maxKeptRange is the largest buffer rangeBufs keeps: twice an update-scan
// or column chunk of 4096 records, for growth's rounding. A whole-partition
// range (collecting values, a checkpoint) grows a buffer of |V_w| records,
// which is left to the collector rather than held for the process's life.
const maxKeptRange = 2 * 4096 * RecordSize

func putRangeBuf(bp *[]byte) {
	if cap(*bp) <= maxKeptRange {
		rangeBufs.Put(bp)
	}
}

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

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

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
	bp := rangeBufs.Get()
	defer putRangeBuf(bp)
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
	bp := rangeBufs.Get()
	defer putRangeBuf(bp)
	*bp = slices.Grow((*bp)[:0], int(hi-lo)*RecordSize)[:int(hi-lo)*RecordSize]
	buf := *bp
	for i, r := range recs {
		encode(buf[i*RecordSize:], r)
	}
	off := int64(lo-s.lo) * RecordSize
	_, err := s.f.WriteAtClass(buf, off, diskio.SeqWrite)
	return err
}

// ReadBcast random-reads the broadcast column of parity for vertex v: the
// per-svertex random read that pull and b-pull pay (IO(V_rr^t)).
func (s *Store) ReadBcast(v graph.VertexID, parity int) (float64, error) {
	if !s.Contains(v) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	var b [8]byte
	off := int64(v-s.lo)*RecordSize + 16 + int64(parity&1)*8
	if _, err := s.f.ReadAtClass(b[:], off, diskio.RandRead); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

// ScanRun is one caller's tally of Column reads it has yet to charge: how
// many, their device bytes, and where the last one was.
type ScanRun struct{ count, dev, lastOff int64 }

// ChargeRun charges run's reads, exactly as charging each when it happened
// would have. Callers charge on their error paths too.
func (s *Store) ChargeRun(run *ScanRun) {
	if run.count > 0 {
		s.f.ChargeDevRun(BcastSize, int(run.count), run.lastOff, diskio.RandRead, run.dev)
	}
}

// Column is a copy of one broadcast column, taken for the span in which
// the column cannot change — a superstep, for the read parity — with the
// file pages its reads have charged so far.
type Column struct {
	lo      graph.VertexID
	parity  int
	vals    []float64
	touched []atomic.Bool // by file page: a read has charged the page
}

// ReadColumn copies broadcast column parity into c, reusing c's memory,
// and forgets which pages c's reads touched. The copy is one sequential
// pass over the file and is not charged: each read Column.Read serves is
// charged as ReadBcast would charge it.
func (s *Store) ReadColumn(parity int, c *Column) error {
	c.lo, c.parity = s.lo, parity&1
	c.vals = slices.Grow(c.vals[:0], s.n)[:s.n]
	pages := (s.n*RecordSize + diskio.PageSize - 1) / diskio.PageSize
	if cap(c.touched) < pages {
		c.touched = make([]atomic.Bool, pages)
	}
	c.touched = c.touched[:pages]
	for i := range c.touched {
		c.touched[i].Store(false)
	}
	bp := rangeBufs.Get()
	defer putRangeBuf(bp)
	const chunk = 4096 // records per read: the update scan's chunk, which the lent buffer already fits
	at := 16 + 8*c.parity
	for lo := 0; lo < s.n; lo += chunk {
		k := min(chunk, s.n-lo)
		*bp = slices.Grow((*bp)[:0], k*RecordSize)[:k*RecordSize]
		buf := *bp
		if _, err := s.f.ReadUncharged(buf, int64(lo)*RecordSize, diskio.SeqRead); err != nil {
			return err
		}
		for i := range k {
			c.vals[lo+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*RecordSize+at:]))
		}
	}
	s.columnReads.Inc()
	return nil
}

// Read returns vertex v's broadcast value and tallies in run what a
// scan-local ReadBcast costs: 8 logical bytes, and one device page when no
// read since ReadColumn has touched v's page. The page set is consulted
// only when run moves to a new page, so concurrent runs share it at one
// atomic access per page. A read that fails is not tallied.
func (c *Column) Read(v graph.VertexID, run *ScanRun) (float64, error) {
	i := int(v - c.lo) // wraps far past len(vals) below lo
	if i >= len(c.vals) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, c.lo, int(c.lo)+len(c.vals))
	}
	off := int64(i)*RecordSize + 16 + int64(c.parity)*8
	if page := off / diskio.PageSize; run.count == 0 || page != run.lastOff/diskio.PageSize {
		if t := &c.touched[page]; !t.Load() && !t.Swap(true) {
			run.dev += diskio.PageSize
		}
	}
	run.count, run.lastOff = run.count+1, off
	return c.vals[i], nil
}

// SetMetrics wires the store's column copies into reg as
// "vertexfile.column_reads". A nil registry disables the counter.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.columnReads = reg.Counter("vertexfile.column_reads")
}

// WriteRecord random-writes one full record (the pull baseline's
// per-active-vertex apply when few vertices are active).
func (s *Store) WriteRecord(r Record) error {
	if !s.Contains(r.ID) {
		return fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", r.ID, s.lo, int(s.lo)+s.n)
	}
	var b [RecordSize]byte
	encode(b[:], r)
	_, err := s.f.WriteAtClass(b[:], int64(r.ID-s.lo)*RecordSize, diskio.RandWrite)
	return err
}

// ReadRecord random-reads one full record.
func (s *Store) ReadRecord(v graph.VertexID) (Record, error) {
	if !s.Contains(v) {
		return Record{}, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
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
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Val))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Bcast[0]))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.Bcast[1]))
}

func decode(b []byte) Record {
	return Record{
		ID:     graph.VertexID(binary.LittleEndian.Uint32(b[0:])),
		OutDeg: binary.LittleEndian.Uint32(b[4:]),
		Val:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Bcast: [2]float64{
			math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// SetCounter retargets the store's I/O accounting. Used to separate
// loading cost from computation cost.
func (s *Store) SetCounter(ct *diskio.Counter) { s.f.SetCounter(ct) }
