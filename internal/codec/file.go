package codec

import (
	"fmt"
	"io"
	"os"
	"slices"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/obs"
)

// The identity rule. Each structure has one path under every codec; only
// its file's layout differs. Under the identity codec the file holds the
// logical bytes, so each logical charge is mirrored into the counter's
// physical twin and the file's own I/O is charged nowhere else. Under any
// other codec the file holds frames: the logical charges stay on the
// counter and the frame I/O lands on its twin (sides).

// framing is the codec a file written under c frames its blocks with:
// nil under the identity codec, whose files hold their logical bytes.
func framing(c Codec) Codec {
	if IsNone(c) {
		return nil
	}
	return c
}

// sides returns the counter a file charges its own I/O to and the
// accountant its logical accesses are charged through.
func sides(ct *diskio.Counter, framed bool) (*diskio.Counter, *diskio.Accountant) {
	if framed {
		return diskio.PhysFor(ct), diskio.NewAccountant(ct)
	}
	return &diskio.Counter{}, diskio.NewMirrorAccountant(ct)
}

// encode returns logical as a file framed with c holds it: logical itself
// when c is nil, else one frame built in *frame's storage.
func encode(frame *[]byte, c Codec, logical []byte) []byte {
	if c == nil {
		return logical
	}
	*frame = AppendFrame((*frame)[:0], c, logical)
	return *frame
}

// decodeFrames appends the logical bytes of b, a run of whole frames, to dst.
func decodeFrames(dst, b []byte) ([]byte, error) {
	for len(b) > 0 {
		var n int
		var err error
		if dst, n, err = DecodeFrame(dst, b); err != nil {
			return dst, err
		}
		b = b[n:]
	}
	return dst, nil
}

// head reads path's first bytes, up to one frame header, uncharged like
// the stat it stands in for.
func head(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, HeaderSize)
	n, _ := io.ReadFull(f, b) // a short file is no frame; its reader reports what is wrong
	return b[:n], nil
}

// isFramed reports whether b begins with a frame. No file in the identity
// layout starts with the frame magic: checkpoint files start "HGCK" and
// message-log records with their kind byte.
func isFramed(b []byte) bool { return len(b) >= len(magic) && string(b[:len(magic)]) == magic }

// LogicalSize reports the logical bytes of a file WriteFile wrote, under
// any codec: its frame header's logical length, or its size when it holds
// its logical bytes. It charges nothing, like the stat it is.
func LogicalSize(path string) (int64, error) {
	b, err := head(path)
	if err != nil {
		return 0, err
	}
	if !isFramed(b) {
		st, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		return st.Size(), nil
	}
	h, err := ParseHeader(b)
	if err != nil {
		return 0, fmt.Errorf("codec: %s: %w", path, err)
	}
	return int64(h.LogicalLen), nil
}

// WriteFile atomically replaces path with logical under c — as it is
// under the identity codec, else as one frame — written, fsynced and
// renamed through the fault layer (diskio.WriteFileSync), and charged as
// the one sequential write and the sync of the logical bytes.
func WriteFile(path string, ct *diskio.Counter, c Codec, logical []byte) error {
	c = framing(c)
	phys, acct := sides(ct, c != nil)
	var frame []byte
	if err := diskio.WriteFileSync(path, encode(&frame, c, logical), phys, diskio.SeqWrite); err != nil {
		return err
	}
	acct.WriteAtClass(int64(len(logical)), 0, diskio.SeqWrite)
	acct.Sync()
	return nil
}

// ReadFile returns the logical bytes of a whole file WriteFile or an
// Appender wrote, under any codec: which one is told by the file's first
// bytes. An empty file reads nothing; any other is one physical read,
// charged as the sequential read of its logical bytes.
func ReadFile(path string, ct *diskio.Counter) ([]byte, error) {
	b, err := head(path)
	if err != nil {
		return nil, err
	}
	framed := isFramed(b)
	phys, acct := sides(ct, framed)
	f, err := diskio.OpenRead(path, phys)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil || size == 0 {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAtClass(buf, 0, diskio.SeqRead); err != nil {
		return nil, err
	}
	if framed {
		if buf, err = decodeFrames(nil, buf); err != nil {
			return nil, fmt.Errorf("codec: %s: %w", path, err)
		}
	}
	acct.ReadAtClass(int64(len(buf)), 0, diskio.SeqRead)
	return buf, nil
}

// End is where an Appender's file ends: logical bytes appended, and the
// physical bytes they take on disk.
type End struct{ Logical, Physical int64 }

// Appender appends records to a file, each in one sequential write — the
// record as it is under the identity codec, else one frame — charged as
// the sequential write of the record at the logical end.
type Appender struct {
	f     *diskio.File
	acct  *diskio.Accountant
	c     Codec // the frames' codec; nil writes records as they are
	frame []byte
	end   End
}

// OpenAppender starts appending to path under c: to a fresh file when end
// is nil, else to the file an earlier Appender left at *end, which it
// reopens without reading.
func OpenAppender(path string, ct *diskio.Counter, c Codec, end *End) (*Appender, error) {
	c = framing(c)
	phys, acct := sides(ct, c != nil)
	a := &Appender{acct: acct, c: c}
	var err error
	if end == nil {
		a.f, err = diskio.Create(path, phys)
	} else {
		a.f, err = diskio.Open(path, phys)
		a.end = *end
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Append writes rec at the end.
func (a *Appender) Append(rec []byte) error {
	out := encode(&a.frame, a.c, rec)
	if _, err := a.f.WriteAtClass(out, a.end.Physical, diskio.SeqWrite); err != nil {
		return err
	}
	a.acct.WriteAtClass(int64(len(rec)), a.end.Logical, diskio.SeqWrite)
	a.end.Logical += int64(len(rec))
	a.end.Physical += int64(len(out))
	return nil
}

// End reports where the file ends.
func (a *Appender) End() End { return a.end }

// Sync fsyncs the file, charged as one zero-byte sequential-write op.
func (a *Appender) Sync() error {
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.acct.Sync()
	return nil
}

// Close releases the file.
func (a *Appender) Close() error { return a.f.Close() }

// SpillChunk is a framed spill's staging threshold: records accumulate in
// memory and reach the file as one frame per SpillChunk logical bytes
// (12-byte spill records framed one by one would expand, not compress).
const SpillChunk = 16 << 10

// SpillBufSize bounds the staging buffer of a spill in the identity
// layout: the records reach the file in one write when the next one no
// longer fits, so a write never splits a record.
const SpillBufSize = 64 << 10

// SpillFile is the message spill under every codec. Each record is
// charged as the paper's random write at its logical offset, one
// ChargeRun per stretch between two writes, and staged in memory. In the
// identity layout a full buffer is written by the append that needs the
// room and the tail by ReadAll, so a failed write surfaces from the call
// that flushed and leaves the buffer for the retry; otherwise each
// SpillChunk is written as one frame once it fills and the tail stays in
// memory. ReadAll charges the one sequential read of the whole spill.
// Close drops the cycle's file but not the buffers.
type SpillFile struct {
	path    string
	c       Codec // the frames' codec; nil writes records as they are
	ct      *diskio.Counter
	flushes *obs.Counter

	f          *diskio.File
	acct       *diskio.Accountant
	staging    []byte // records charged but not yet written
	frame      []byte // the frame being written
	readBack   []byte // the frames ReadAll reads back
	physOff    int64
	logicalLen int64
}

// NewSpillFile prepares a spill at path under c. Nothing touches the disk
// before the first Append.
func NewSpillFile(path string, ct *diskio.Counter, c Codec) *SpillFile {
	return &SpillFile{path: path, c: framing(c), ct: ct}
}

// CountFlushes counts every write of the staging buffer into n (nil
// counts nothing).
func (s *SpillFile) CountFlushes(n *obs.Counter) { s.flushes = n }

// Len reports the logical bytes appended since the last Close.
func (s *SpillFile) Len() int64 { return s.logicalLen }

// Append spills one record.
func (s *SpillFile) Append(rec []byte) error {
	_, err := s.AppendRun(rec, len(rec))
	return err
}

// AppendRun spills the whole recSize-byte records in recs and reports how
// many it accepted, and charged, before a write failed.
func (s *SpillFile) AppendRun(recs []byte, recSize int) (int, error) {
	if recSize <= 0 || len(recs)%recSize != 0 {
		return 0, fmt.Errorf("codec: %s: %d bytes is not a run of %d-byte records", s.path, len(recs), recSize)
	}
	if s.f == nil {
		phys, acct := sides(s.ct, s.c != nil)
		f, err := diskio.Create(s.path, phys)
		if err != nil {
			return 0, err
		}
		s.f, s.acct = f, acct
	}
	if s.staging == nil {
		s.staging = make([]byte, 0, SpillBufSize)
	}
	accepted := 0
	for len(recs) > 0 {
		var k int
		if s.c == nil {
			if len(s.staging)+recSize > SpillBufSize {
				if err := s.flush(); err != nil {
					return accepted, err
				}
			}
			k = min(len(recs), SpillBufSize-len(s.staging)) / recSize
		} else {
			// The record that takes the staging area to SpillChunk or past
			// it is the last of its frame.
			k = min(len(recs)/recSize, (SpillChunk-len(s.staging)+recSize-1)/recSize)
		}
		s.acct.ChargeRun(int64(recSize), k, s.logicalLen, diskio.RandWrite)
		s.staging = append(s.staging, recs[:k*recSize]...)
		s.logicalLen += int64(k * recSize)
		recs = recs[k*recSize:]
		accepted += k
		if s.c != nil && len(s.staging) >= SpillChunk {
			if err := s.flush(); err != nil {
				return accepted, err
			}
		}
	}
	return accepted, nil
}

// flush writes the staged records at the physical end.
func (s *SpillFile) flush() error {
	if len(s.staging) == 0 {
		return nil
	}
	out := encode(&s.frame, s.c, s.staging)
	if _, err := s.f.WriteAtClass(out, s.physOff, diskio.RandWrite); err != nil {
		return err
	}
	s.physOff += int64(len(out))
	s.staging = s.staging[:0]
	s.flushes.Inc()
	return nil
}

// ReadAll fills p, which must be exactly Len() bytes, with the record
// stream and charges the sequential read of the whole spill.
func (s *SpillFile) ReadAll(p []byte) error {
	if int64(len(p)) != s.logicalLen {
		return fmt.Errorf("codec: %s: drain of %d bytes, spilled %d", s.path, len(p), s.logicalLen)
	}
	if s.f == nil {
		return nil // nothing spilled
	}
	if s.c == nil {
		// The file holds the records: write the tail, read the whole.
		if err := s.flush(); err != nil {
			return err
		}
		if _, err := s.f.ReadAtClass(p, 0, diskio.SeqRead); err != nil {
			return err
		}
	} else {
		// The file holds the full chunks' frames; the tail is staged.
		out := p[:0]
		if s.physOff > 0 {
			s.readBack = slices.Grow(s.readBack[:0], int(s.physOff))[:s.physOff]
			if _, err := s.f.ReadAtClass(s.readBack, 0, diskio.SeqRead); err != nil {
				return err
			}
			var err error
			if out, err = decodeFrames(out, s.readBack); err != nil {
				return fmt.Errorf("codec: %s: %w", s.path, err)
			}
		}
		if out = append(out, s.staging...); int64(len(out)) != s.logicalLen {
			return fmt.Errorf("%w: %s: spill decoded to %d bytes, want %d", ErrCorrupt, s.path, len(out), s.logicalLen)
		}
	}
	s.acct.ReadAtClass(s.logicalLen, 0, diskio.SeqRead)
	return nil
}

// Close drops the cycle's file and returns the spill to its state before
// the first Append, keeping its buffers.
func (s *SpillFile) Close() error {
	var err error
	if s.f != nil {
		err = s.f.Close()
	}
	s.f, s.acct = nil, nil
	s.staging = s.staging[:0]
	s.physOff, s.logicalLen = 0, 0
	return err
}
