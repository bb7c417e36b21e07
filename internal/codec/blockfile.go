package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/obs"
)

// ChunkSize is the logical granularity of a compressed block file: the
// raw image is split into ChunkSize runs, each stored as one frame, so
// a random logical access decompresses one chunk, not the whole store.
const ChunkSize = 64 << 10

// SpillChunk is the staging threshold of a compressed spill file:
// records accumulate in memory and are flushed as one frame per
// SpillChunk logical bytes (12-byte spill records framed individually
// would expand, not compress).
const SpillChunk = 16 << 10

const (
	footerMagic = "HGCI"
	footerSize  = 4 + 8 + 8 // magic + index offset + logical size
)

// chunkCacheCap bounds the decoded-chunk cache each BlockFile holds
// (chunkCacheCap × ChunkSize bytes at most). One chunk is not enough:
// several readers stream different regions of one file at once — the
// update scan's shards over an adjacency file, concurrent pull requests
// over an Eblock file — and a single slot would re-decode a full frame on
// every alternation.
const chunkCacheCap = 8

// BlockFile is the compressed replacement for the write-once,
// scan-many stores (adjacency runs, VE-BLOCK images). On disk it is a
// run of chunk frames, an index frame (frame lengths of every chunk,
// codec "none"), and a fixed footer locating the index. Logical
// accounting replays the caller's accesses through an Accountant;
// physical frame I/O is charged, in the caller's access class, to the
// counter's physical twin.
//
// Safe for concurrent readers: a mutex serialises chunk decode and the
// chunk cache (parallel shards scanning disjoint ranges still get exact
// logical accounting — charges are per-access, not positional).
type BlockFile struct {
	f    *diskio.File // physical frames, charged to the phys twin
	acct *diskio.Accountant
	path string

	mu     sync.Mutex
	size   int64 // logical bytes
	chunks []chunkRef
	// The decoded-chunk cache (first in, first out; slot storage is reused)
	slots []chunkSlot
	next  int    // chunks cached so far
	raw   []byte // the frame being decoded

	lookups, decodes *obs.Counter // nil when metrics are disabled
}

type chunkSlot struct {
	ci   int
	data []byte
}

type chunkRef struct {
	physOff int64
	physLen int64
}

// Reader is a write-once store file (adjacency runs, a VE-BLOCK image)
// open for reading: a raw diskio.File under codec "none", else a BlockFile
// charging the same logical bytes, its frame I/O on the physical twin.
type Reader interface {
	ReadUncharged(p []byte, off int64, c diskio.Class) (int, error)
	Charge(n, off int64, c diskio.Class)
	Size() (int64, error)
	SetCounter(*diskio.Counter)
	Close() error
}

// OpenReader opens a store file written under c.
func OpenReader(path string, ct *diskio.Counter, c Codec) (Reader, error) {
	if IsNone(c) {
		return diskio.OpenRead(path, ct)
	}
	return OpenBlockFile(path, ct)
}

// ReadWindow moves f's bytes [lo, hi) into buf's storage, one uncharged read.
func ReadWindow(f Reader, buf []byte, lo, hi int64) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(hi-lo))[:hi-lo]
	if n, err := f.ReadUncharged(buf, lo, diskio.SeqRead); int64(n) < hi-lo {
		if err == nil || err == io.EOF {
			err = fmt.Errorf("codec: short read at %d: %d of %d bytes", lo, n, hi-lo)
		}
		return buf[:0], err
	}
	return buf, nil
}

// CreateReader writes buf as path's whole image under c — one sequential
// logical write, none for an empty image — and returns it open for reading.
func CreateReader(path string, ct *diskio.Counter, c Codec, buf []byte) (Reader, error) {
	if !IsNone(c) {
		if err := WriteBlockFile(path, ct, c, buf); err != nil {
			return nil, err
		}
		return OpenBlockFile(path, ct)
	}
	f, err := diskio.Create(path, ct)
	if err != nil {
		return nil, err
	}
	if len(buf) > 0 {
		if _, err := f.WriteAtClass(buf, 0, diskio.SeqWrite); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// WriteBlockFile writes buf as a compressed block file at path. The
// logical charge is exactly the uncompressed store's: one sequential
// write of len(buf) bytes at offset 0 on a fresh file — and, like the
// raw stores, nothing at all for an empty image (the file is created
// and left empty). It is the buffered convenience over BlockWriter; the
// two produce byte-identical files.
func WriteBlockFile(path string, ct *diskio.Counter, c Codec, buf []byte) error {
	w, err := NewBlockWriter(path, ct, c)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// OpenBlockFile opens a compressed block file for reading. The footer
// and index reads are physical-only (the raw store's open performs no
// data I/O either — geometry checks come from sizes the caller knows).
func OpenBlockFile(path string, ct *diskio.Counter) (*BlockFile, error) {
	f, err := diskio.OpenRead(path, diskio.PhysFor(ct))
	if err != nil {
		return nil, err
	}
	b := &BlockFile{f: f, acct: diskio.NewAccountant(ct), path: path}
	if err := b.loadIndex(); err != nil {
		f.Close()
		return nil, fmt.Errorf("codec: open %s: %w", path, err)
	}
	return b, nil
}

func (b *BlockFile) loadIndex() error {
	fsize, err := b.f.Size()
	if err != nil {
		return err
	}
	if fsize == 0 {
		return nil // empty image
	}
	if fsize < footerSize {
		return fmt.Errorf("%w: %d-byte file below footer size", ErrCorrupt, fsize)
	}
	fb := make([]byte, footerSize)
	if _, err := b.f.ReadAtClass(fb, fsize-footerSize, diskio.RandRead); err != nil {
		return err
	}
	if string(fb[:4]) != footerMagic {
		return fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, fb[:4])
	}
	indexOff := int64(binary.LittleEndian.Uint64(fb[4:]))
	b.size = int64(binary.LittleEndian.Uint64(fb[12:]))
	if indexOff < 0 || indexOff > fsize-footerSize || b.size < 0 {
		return fmt.Errorf("%w: implausible footer (index %d size %d)", ErrCorrupt, indexOff, b.size)
	}
	rawIdx := make([]byte, fsize-footerSize-indexOff)
	if _, err := b.f.ReadAtClass(rawIdx, indexOff, diskio.RandRead); err != nil {
		return err
	}
	index, _, err := DecodeFrame(nil, rawIdx)
	if err != nil {
		return err
	}
	if len(index) < 4 {
		return fmt.Errorf("%w: truncated chunk index", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(index))
	if len(index) != 4+4*n {
		return fmt.Errorf("%w: chunk index declares %d entries in %d bytes", ErrCorrupt, n, len(index))
	}
	want := (b.size + ChunkSize - 1) / ChunkSize
	if int64(n) != want {
		return fmt.Errorf("%w: %d chunks for %d logical bytes", ErrCorrupt, n, b.size)
	}
	b.chunks = make([]chunkRef, n)
	var off int64
	for i := 0; i < n; i++ {
		l := int64(binary.LittleEndian.Uint32(index[4+4*i:]))
		b.chunks[i] = chunkRef{physOff: off, physLen: l}
		off += l
	}
	if off != indexOff {
		return fmt.Errorf("%w: chunk lengths sum to %d, index at %d", ErrCorrupt, off, indexOff)
	}
	return nil
}

// Size reports the logical image size.
func (b *BlockFile) Size() (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size, nil
}

// SetCounter retargets logical accounting to ct and physical accounting
// to ct's twin, mirroring File.SetCounter on the raw stores.
func (b *BlockFile) SetCounter(ct *diskio.Counter) {
	b.acct.SetCounter(ct)
	b.f.SetCounter(diskio.PhysFor(ct))
}

// SetMetrics wires reg's "codec.chunk_lookups" (chunk accesses) and
// "codec.chunk_decodes" (those that inflated a frame); nil disables them.
func (b *BlockFile) SetMetrics(reg *obs.Registry) {
	b.mu.Lock()
	b.lookups = reg.Counter("codec.chunk_lookups")
	b.decodes = reg.Counter("codec.chunk_decodes")
	b.mu.Unlock()
}

// Name reports the file path.
func (b *BlockFile) Name() string { return b.path }

// Close releases the physical file.
func (b *BlockFile) Close() error { return b.f.Close() }

// ReadAtClass reads logical bytes at off, charging exactly what the
// raw store's File.ReadAtClass would charge, and decompressing only the
// chunks the range touches (physical reads carry the same class).
func (b *BlockFile) ReadAtClass(p []byte, off int64, c diskio.Class) (int, error) {
	n, err := b.ReadUncharged(p, off, c)
	if err == nil || err == io.EOF {
		// Like the raw File, a zero-byte or past-end read still records
		// one zero-byte operation of class c.
		b.acct.ReadAtClass(int64(n), off, c)
	}
	return n, err
}

// Charge records the logical access a full ReadAtClass would, moving nothing.
func (b *BlockFile) Charge(n, off int64, c diskio.Class) { b.acct.Charge(n, off, c) }

// ReadUncharged moves logical bytes at off into p and charges nothing
// logical; frames it has to fetch are physical reads of class c.
func (b *BlockFile) ReadUncharged(p []byte, off int64, c diskio.Class) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("codec: %s: negative read offset %d", b.path, off)
	}
	n := int64(len(p))
	if n == 0 {
		return 0, nil
	}
	if off >= b.size {
		return 0, io.EOF
	}
	short := false
	if off+n > b.size {
		n = b.size - off
		short = true
	}
	var copied int64
	for copied < n {
		pos := off + copied
		ci := int(pos / ChunkSize)
		in := pos - int64(ci)*ChunkSize
		if whole := min(ChunkSize, b.size-pos); in == 0 && n-copied >= whole {
			// The caller takes the whole chunk: inflate it straight into p
			// (caching it would make later reads depend on earlier readers).
			if _, err := b.decode(ci, p[copied:copied:copied+whole], c); err != nil {
				return int(copied), fmt.Errorf("codec: %s: %w", b.path, err)
			}
			copied += whole
			continue
		}
		chunk, err := b.chunkLocked(ci, c)
		if err != nil {
			return int(copied), fmt.Errorf("codec: %s: %w", b.path, err)
		}
		copied += int64(copy(p[copied:n], chunk[in:]))
	}
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// decode reads chunk ci's frame, a physical read of class c, and decodes
// it into dst's storage. Callers hold b.mu.
func (b *BlockFile) decode(ci int, dst []byte, c diskio.Class) ([]byte, error) {
	b.lookups.Inc()
	b.decodes.Inc()
	ref := b.chunks[ci]
	b.raw = slices.Grow(b.raw[:0], int(ref.physLen))[:ref.physLen]
	if _, err := b.f.ReadAtClass(b.raw, ref.physOff, c); err != nil {
		return nil, err
	}
	chunk, _, err := DecodeFrame(dst[:0], b.raw)
	if err != nil {
		return nil, err
	}
	if want := min(ChunkSize, b.size-int64(ci)*ChunkSize); int64(len(chunk)) != want {
		return nil, fmt.Errorf("%w: chunk %d decoded to %d bytes, want %d", ErrCorrupt, ci, len(chunk), want)
	}
	return chunk, nil
}

// chunkLocked returns the decoded chunk ci via the cache, valid until the
// next call.
func (b *BlockFile) chunkLocked(ci int, c diskio.Class) ([]byte, error) {
	for k := range b.slots {
		if b.slots[k].ci == ci {
			b.lookups.Inc()
			return b.slots[k].data, nil
		}
	}
	if len(b.slots) < chunkCacheCap {
		b.slots = append(b.slots, chunkSlot{})
	}
	slot := &b.slots[b.next%len(b.slots)] // the new slot while the cache grows
	b.next++
	slot.ci = -1 // holds nothing until the decode succeeds
	chunk, err := b.decode(ci, slot.data, c)
	if err != nil {
		return nil, err
	}
	slot.ci, slot.data = ci, chunk
	return chunk, nil
}

// SpillFile is the compressed replacement for a message-spill file:
// records are charged logically as the paper's random writes (arrival
// order, destination locality unknown), staged in memory, and flushed
// to disk as compressed frames. ReadAll reassembles the full logical
// record stream — flushed frames plus the unflushed tail — and charges
// the one sequential read the raw spill's drain performs.
type SpillFile struct {
	path string
	c    Codec
	ct   *diskio.Counter

	acct       *diskio.Accountant
	f          *diskio.File
	staging    []byte
	frame      []byte // the frame being written, reused
	physOff    int64
	logicalLen int64
}

// NewSpillFile prepares a spill at path; like the raw spill, the file
// is created lazily on the first Append.
func NewSpillFile(path string, ct *diskio.Counter, c Codec) *SpillFile {
	return &SpillFile{path: path, c: c, ct: ct}
}

// SetCounter retargets future logical and physical charges.
func (s *SpillFile) SetCounter(ct *diskio.Counter) {
	s.ct = ct
	if s.acct != nil {
		s.acct.SetCounter(ct)
	}
	if s.f != nil {
		s.f.SetCounter(diskio.PhysFor(ct))
	}
}

// Len reports the logical bytes appended since the last Close.
func (s *SpillFile) Len() int64 { return s.logicalLen }

// Append spills one record, charging the random write the raw spill
// would perform at the same logical offset.
func (s *SpillFile) Append(rec []byte) error {
	_, err := s.AppendRun(rec, len(rec))
	return err
}

// AppendRun spills the whole recSize-byte records in recs, charging one
// random write per record (one ChargeRun per stretch between frame
// flushes, which fall where Append's would). It reports how many records
// were accepted, and charged, before a flush failed.
func (s *SpillFile) AppendRun(recs []byte, recSize int) (int, error) {
	if recSize <= 0 || len(recs)%recSize != 0 {
		return 0, fmt.Errorf("codec: %s: %d bytes is not a run of %d-byte records", s.path, len(recs), recSize)
	}
	if s.f == nil {
		f, err := diskio.Create(s.path, diskio.PhysFor(s.ct))
		if err != nil {
			return 0, err
		}
		s.f = f
		s.acct = diskio.NewAccountant(s.ct)
	}
	accepted := 0
	for len(recs) > 0 {
		// The record that takes the staging area to SpillChunk or past it
		// is the last of its frame.
		k := min(len(recs)/recSize, (SpillChunk-len(s.staging)+recSize-1)/recSize)
		s.acct.ChargeRun(int64(recSize), k, s.logicalLen, diskio.RandWrite)
		s.staging = append(s.staging, recs[:k*recSize]...)
		s.logicalLen += int64(k * recSize)
		recs = recs[k*recSize:]
		accepted += k
		if len(s.staging) >= SpillChunk {
			if err := s.flush(); err != nil {
				return accepted, err
			}
		}
	}
	return accepted, nil
}

func (s *SpillFile) flush() error {
	s.frame = AppendFrame(s.frame[:0], s.c, s.staging)
	if _, err := s.f.WriteAtClass(s.frame, s.physOff, diskio.RandWrite); err != nil {
		return err
	}
	s.physOff += int64(len(s.frame))
	s.staging = s.staging[:0]
	return nil
}

// ReadAll fills p (which must be exactly Len() bytes) with the logical
// record stream and charges the whole-spill sequential read.
func (s *SpillFile) ReadAll(p []byte) error {
	if int64(len(p)) != s.logicalLen {
		return fmt.Errorf("codec: %s: drain of %d bytes, spilled %d", s.path, len(p), s.logicalLen)
	}
	out := p[:0]
	if s.physOff > 0 {
		raw := make([]byte, s.physOff)
		if _, err := s.f.ReadAtClass(raw, 0, diskio.SeqRead); err != nil {
			return err
		}
		for len(raw) > 0 {
			var n int
			var err error
			out, n, err = DecodeFrame(out, raw)
			if err != nil {
				return fmt.Errorf("codec: %s: %w", s.path, err)
			}
			raw = raw[n:]
		}
	}
	out = append(out, s.staging...)
	if int64(len(out)) != s.logicalLen {
		return fmt.Errorf("%w: %s: spill decoded to %d bytes, want %d", ErrCorrupt, s.path, len(out), s.logicalLen)
	}
	s.acct.ReadAtClass(s.logicalLen, 0, diskio.SeqRead)
	return nil
}

// Close releases the physical file and resets to the lazy state, so the
// next Append starts a fresh spill cycle exactly as the raw spill's
// close-and-recreate does.
func (s *SpillFile) Close() error {
	var err error
	if s.f != nil {
		err = s.f.Close()
	}
	s.f, s.acct = nil, nil
	s.staging = nil
	s.physOff, s.logicalLen = 0, 0
	return err
}
