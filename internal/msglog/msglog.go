// Package msglog implements the sender-side message log that confined
// recovery consumes: each worker appends the push packets it sends and the
// pull responses it serves to a local, append-only, superstep-segmented
// log. After a failure only the crashed worker recomputes — survivors
// serve their log segments instead of re-executing supersteps, which is
// what makes recovery cost scale with the failed partition rather than
// the whole job (the GraphD-style confined recovery the paper's
// prototype omits).
//
// Records are CRC-framed individually, so a torn tail write surfaces as a
// verification error instead of silently replaying garbage. Segments are
// one file per superstep and are pruned once the checkpoint coordinator
// commits a superstep that subsumes them. All writes flow through the
// diskio counter handed to Open, so log overhead is charged to the same
// cost model as computation.
package msglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
)

// Kind discriminates the two record flavours a worker logs.
type Kind uint8

const (
	// KindPush is an outgoing push packet, keyed by destination worker.
	KindPush Kind = 1
	// KindPullResp is a served pull response, keyed by requested global
	// Vblock.
	KindPullResp Kind = 2
)

// recHeaderSize is kind(1) + step(4) + key(4) + count(4).
const recHeaderSize = 1 + 4 + 4 + 4

// msgSize is one logged message: dst(4) + value bits(8).
const msgSize = 4 + 8

// Log is one worker's message log. Appends are serialised internally
// (pull responses run on requester goroutines); reads take the same lock
// only long enough to flush segment bookkeeping.
type Log struct {
	dir string
	ct  *diskio.Counter
	cdc codec.Codec

	mu      sync.Mutex
	step    int          // superstep of the open segment (-1 = none)
	f       *diskio.File // open segment, append position off
	off     int64        // logical append position (== physical when raw)
	poff    int64        // physical append position (framed segments)
	acct    *diskio.Accountant
	bytes   int64 // total record bytes appended over the log's lifetime
	records int64
}

// Open creates (or reopens) a worker's message log rooted at dir. All
// write I/O is charged to ct as sequential writes. With a non-trivial
// codec each record is stored as one compressed frame: the logical
// charge (the record bytes, the number Eq.-style LogIO reasons about)
// is unchanged, while the frame bytes land on ct's physical twin.
func Open(dir string, ct *diskio.Counter, cdc codec.Codec) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Log{dir: dir, ct: ct, cdc: cdc, step: -1}, nil
}

// SegmentPath names the segment file holding superstep step's records.
func (l *Log) SegmentPath(step int) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%06d.log", step))
}

// AppendPush logs one outgoing push packet sent during superstep step to
// worker dst. Call before handing the packet to the fabric so retries and
// duplicated deliveries never double-log.
func (l *Log) AppendPush(step, dst int, msgs []comm.Msg) error {
	return l.append(step, KindPush, uint32(dst), msgs)
}

// AppendPullResp logs one served pull response for global Vblock block at
// superstep step, exactly as it crossed the wire (post concat/combine).
func (l *Log) AppendPullResp(step, block int, msgs []comm.Msg) error {
	return l.append(step, KindPullResp, uint32(block), msgs)
}

func (l *Log) append(step int, kind Kind, key uint32, msgs []comm.Msg) error {
	rec := encodeRecord(step, kind, key, msgs)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.switchTo(step); err != nil {
		return err
	}
	if codec.IsNone(l.cdc) {
		if _, err := l.f.WriteAtClass(rec, l.off, diskio.SeqWrite); err != nil {
			return fmt.Errorf("msglog: %s: %w", l.SegmentPath(step), err)
		}
	} else {
		frame := codec.AppendFrame(nil, l.cdc, rec)
		if _, err := l.f.WriteAtClass(frame, l.poff, diskio.SeqWrite); err != nil {
			return fmt.Errorf("msglog: %s: %w", l.SegmentPath(step), err)
		}
		l.poff += int64(len(frame))
		l.acct.WriteAtClass(int64(len(rec)), l.off, diskio.SeqWrite)
	}
	l.off += int64(len(rec))
	l.bytes += int64(len(rec))
	l.records++
	return nil
}

// switchTo points the append position at step's segment, reopening an
// existing segment at its tail (a worker that rejoins after a stall
// appends to the step it never finished). Callers hold l.mu.
func (l *Log) switchTo(step int) error {
	if l.f != nil && l.step == step {
		return nil
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := l.SegmentPath(step)
	fct := l.ct
	if !codec.IsNone(l.cdc) {
		fct = diskio.PhysFor(l.ct)
		l.acct = diskio.NewAccountant(l.ct)
	}
	if _, err := os.Stat(path); err == nil {
		f, err := diskio.Open(path, fct)
		if err != nil {
			return err
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return err
		}
		if codec.IsNone(l.cdc) {
			l.f, l.off = f, size
		} else {
			// Reopening a framed segment at its tail: the logical append
			// position is the sum of frame logical lengths, recovered by
			// re-reading the segment (a physical-only cost — the raw log's
			// reopen performs no data I/O, and neither does our logical
			// dimension).
			logical, phys, lerr := loadSegment(path, diskio.PhysFor(l.ct))
			if lerr != nil {
				f.Close()
				return fmt.Errorf("msglog: reopen %s: %w", path, lerr)
			}
			l.f, l.off, l.poff = f, int64(len(logical)), phys
		}
	} else {
		f, err := diskio.Create(path, fct)
		if err != nil {
			return err
		}
		l.f, l.off, l.poff = f, 0, 0
	}
	l.step = step
	return nil
}

// loadSegment reads one whole segment through the fault layer (charged
// to physCt as one sequential read) and returns its logical record
// bytes: frames are decoded when the segment is framed, raw bytes pass
// through. The sniff is unambiguous — a raw record starts with its kind
// byte (1 or 2), never with the frame magic's 'H'.
func loadSegment(path string, physCt *diskio.Counter) (logical []byte, physSize int64, err error) {
	f, err := diskio.OpenRead(path, physCt)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, 0, err
	}
	if size == 0 {
		return nil, 0, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAtClass(buf, 0, diskio.SeqRead); err != nil {
		return nil, 0, err
	}
	if buf[0] != 'H' {
		return buf, size, nil // raw segment
	}
	var out []byte
	rest := buf
	for len(rest) > 0 {
		var n int
		out, n, err = codec.DecodeFrame(out, rest)
		if err != nil {
			return nil, 0, err
		}
		rest = rest[n:]
	}
	return out, size, nil
}

// PushTo reads every push record worker dst was sent during superstep
// step, concatenated in append order (one record per flushed packet).
// A missing segment or no matching record yields an empty slice: the
// sender simply had nothing for dst that superstep. Read bytes are
// charged to rct as sequential reads.
func (l *Log) PushTo(step, dst int, rct *diskio.Counter) ([]comm.Msg, error) {
	var out []comm.Msg
	err := l.scan(step, rct, func(kind Kind, key uint32, msgs []comm.Msg) bool {
		if kind == KindPush && key == uint32(dst) {
			out = append(out, msgs...)
		}
		return true
	})
	return out, err
}

// PullResp reads the pull response this worker served for global Vblock
// block at superstep step. Only the first matching record counts —
// duplicate RPC deliveries under a faulty transport may log twice, and
// both copies are identical by construction. ok is false when the
// segment holds no record for block (the survivor served nothing).
func (l *Log) PullResp(step, block int, rct *diskio.Counter) ([]comm.Msg, bool, error) {
	var out []comm.Msg
	found := false
	err := l.scan(step, rct, func(kind Kind, key uint32, msgs []comm.Msg) bool {
		if kind == KindPullResp && key == uint32(block) {
			out, found = msgs, true
			return false
		}
		return true
	})
	return out, found, err
}

// scan reads and verifies step's whole segment, invoking fn per record
// until it returns false. The full-segment sequential read is the honest
// cost: survivors stream a segment once per replayed superstep.
func (l *Log) scan(step int, rct *diskio.Counter, fn func(kind Kind, key uint32, msgs []comm.Msg) bool) error {
	path := l.SegmentPath(step)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var buf []byte
	if codec.IsNone(l.cdc) {
		f, err := diskio.Open(path, rct)
		if err != nil {
			return err
		}
		defer f.Close()
		size, err := f.Size()
		if err != nil {
			return err
		}
		buf = make([]byte, size)
		if size > 0 {
			if _, err := f.ReadAtClass(buf, 0, diskio.SeqRead); err != nil {
				return err
			}
		}
	} else {
		logical, _, err := loadSegment(path, diskio.PhysFor(rct))
		if err != nil {
			return fmt.Errorf("msglog: %s: %w", path, err)
		}
		buf = logical
		if len(buf) > 0 {
			// The raw log charges the whole-segment sequential read; the
			// logical dimension charges the same record bytes.
			diskio.NewAccountant(rct).ReadAtClass(int64(len(buf)), 0, diskio.SeqRead)
		}
	}
	off := 0
	for off < len(buf) {
		kind, key, recStep, msgs, n, err := decodeRecord(buf[off:])
		if err != nil {
			return fmt.Errorf("msglog: %s at offset %d: %w", path, off, err)
		}
		if recStep != step {
			return fmt.Errorf("msglog: %s at offset %d: record for superstep %d in segment %d", path, off, recStep, step)
		}
		off += n
		if !fn(kind, key, msgs) {
			return nil
		}
	}
	return nil
}

// Prune deletes every segment for supersteps <= through. Called when the
// checkpoint coordinator commits superstep through: the snapshot's parked
// inbox messages subsume every logged packet up to and including that
// superstep, and confined replay never reaches further back. Returns how
// many segments were removed; removal errors are joined, not fatal —
// callers log them and carry on with a larger-than-necessary log.
func (l *Log) Prune(through int) (int, error) {
	l.mu.Lock()
	if l.f != nil && l.step <= through {
		l.f.Close()
		l.f = nil
		l.step = -1
	}
	l.mu.Unlock()
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	var errs []error
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		s, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"))
		if perr != nil || s > through {
			continue
		}
		if rerr := os.Remove(filepath.Join(l.dir, name)); rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		removed++
	}
	return removed, errors.Join(errs...)
}

// Sync fsyncs every segment file still in the log — the open one and
// the closed per-superstep segments pruning has not yet removed. The
// checkpoint coordinator calls this on every worker's log before
// writing its commit marker: after the commit, confined replay trusts
// segments newer than the restored checkpoint, and a segment the
// platter never saw would silently replay as "nothing sent". Each flush
// is charged to the log's counter as one zero-byte sequential-write op
// (LogIO accounting).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("msglog: %s: %w", l.SegmentPath(l.step), err)
		}
		if !codec.IsNone(l.cdc) {
			// The open framed segment's handle charges the physical twin;
			// the logical dimension records the same zero-byte sync op.
			l.acct.Sync()
		}
	}
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		if l.f != nil {
			if s, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log")); perr == nil && s == l.step {
				continue // already synced through the open handle
			}
		}
		if err := diskio.SyncFile(filepath.Join(l.dir, name), l.ct); err != nil {
			return fmt.Errorf("msglog: %s: %w", name, err)
		}
	}
	return nil
}

// BytesLogged reports the total record bytes appended so far.
func (l *Log) BytesLogged() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// SegmentBytes reports the *logical* record bytes of every segment
// still in the log (pruned segments excluded). This is the size of the
// log slice a partition adoption must ship to the surviving host —
// BytesLogged is the wrong number there, being a lifetime total that
// still counts pruned segments. For framed segments the logical size is
// recovered from the frame headers (a physical-only re-read), so the
// migration cost model sees the same bytes whatever codec is active.
func (l *Log) SegmentBytes() (int64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		if codec.IsNone(l.cdc) {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
			continue
		}
		logical, _, err := loadSegment(filepath.Join(l.dir, name), diskio.PhysFor(l.ct))
		if err != nil {
			return 0, err
		}
		total += int64(len(logical))
	}
	return total, nil
}

// Records reports the number of records appended so far.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Close releases the open segment, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.step = -1
	return err
}

// encodeRecord frames one record:
//
//	kind(1) step(4) key(4) count(4) count×[dst(4) val(8)] crc(4)
//
// The CRC covers everything before it, so any torn or flipped byte fails
// verification.
func encodeRecord(step int, kind Kind, key uint32, msgs []comm.Msg) []byte {
	buf := make([]byte, 0, recHeaderSize+len(msgs)*msgSize+4)
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(step))
	buf = binary.LittleEndian.AppendUint32(buf, key)
	buf = comm.AppendMsgs(buf, msgs) // count(4) + the records
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeRecord parses and CRC-verifies one record from the front of b,
// reporting how many bytes it consumed.
func decodeRecord(b []byte) (kind Kind, key uint32, step int, msgs []comm.Msg, n int, err error) {
	if len(b) < recHeaderSize+4 {
		return 0, 0, 0, nil, 0, fmt.Errorf("truncated record header (%d bytes)", len(b))
	}
	kind = Kind(b[0])
	step = int(binary.LittleEndian.Uint32(b[1:]))
	key = binary.LittleEndian.Uint32(b[5:])
	count := int(binary.LittleEndian.Uint32(b[9:]))
	n = recHeaderSize + count*msgSize + 4
	if count < 0 || n > len(b) {
		return 0, 0, 0, nil, 0, fmt.Errorf("truncated record body (count %d, %d bytes left)", count, len(b))
	}
	body := b[:n-4]
	want := binary.LittleEndian.Uint32(b[n-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, 0, 0, nil, 0, fmt.Errorf("CRC mismatch (got %08x, want %08x)", got, want)
	}
	if kind != KindPush && kind != KindPullResp {
		return 0, 0, 0, nil, 0, fmt.Errorf("unknown record kind %d", kind)
	}
	// The header's count and the records after it are one encoded run.
	if msgs, err = comm.DecodeMsgs(nil, b[recHeaderSize-4:n-4]); err != nil {
		return 0, 0, 0, nil, 0, err
	}
	return kind, key, step, msgs, n, nil
}
