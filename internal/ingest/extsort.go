package ingest

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
)

// rec is the 20-byte spill record, one per edge, carrying the sort key
// as its leading fields. Phase A (edge order) leaves a and b zero, so
// the key degenerates to (src, dst, weight bits); phase B (VE-BLOCK
// order) sets a to the source's worker and b to the destination's
// Vblock, so the same comparator yields the Eblock file order. The weight
// rides as its IEEE-754 bit pattern: total, deterministic ordering with
// no NaN pitfalls, and bit-exact round-tripping.
type rec struct {
	a, b, src, dst, w uint32
}

const recSize = 20

// spillFrameRecs keeps each spill frame at ~32 KiB logical: big enough
// for the codecs to pay, small enough that a merge holds fanIn decoded
// frames without denting the budget.
const spillFrameRecs = (32 << 10) / recSize

func recCompare(x, y rec) int {
	switch {
	case x.a != y.a:
		return cmp.Compare(x.a, y.a)
	case x.b != y.b:
		return cmp.Compare(x.b, y.b)
	case x.src != y.src:
		return cmp.Compare(x.src, y.src)
	case x.dst != y.dst:
		return cmp.Compare(x.dst, y.dst)
	default:
		return cmp.Compare(x.w, y.w)
	}
}

func appendRec(dst []byte, r rec) []byte {
	var b [recSize]byte
	le.PutUint32(b[0:], r.a)
	le.PutUint32(b[4:], r.b)
	le.PutUint32(b[8:], r.src)
	le.PutUint32(b[12:], r.dst)
	le.PutUint32(b[16:], r.w)
	return append(dst, b[:]...)
}

func decodeRec(b []byte) rec {
	return rec{
		a: le.Uint32(b[0:]), b: le.Uint32(b[4:]),
		src: le.Uint32(b[8:]), dst: le.Uint32(b[12:]), w: le.Uint32(b[16:]),
	}
}

// sortBudget derives the run capacity (records) and merge fan-in from
// the memory budget. The run buffer takes ~1/5 of the budget — two
// sorters overlap during the adjacency merge (phase A draining, phase B
// filling), and the GC roughly doubles live bytes at peak — and the
// fan-in is sized so fanIn decoded spill frames stay well under the
// rest. budget <= 0 means unlimited: everything sorts in memory and no
// run ever spills.
func sortBudget(budget int64) (capRecs, fanIn int) {
	if budget <= 0 {
		return 0, 64
	}
	capRecs = int(budget / (5 * recSize))
	if capRecs < 256 {
		capRecs = 256
	}
	fanIn = int(budget >> 19) // budget / 512 KiB
	if fanIn < 2 {
		fanIn = 2
	}
	if fanIn > 64 {
		fanIn = 64
	}
	return capRecs, fanIn
}

// sorter is one external-sort instance: records accumulate in buf up to
// capRecs, full runs spill sorted and codec-framed, and finish merges
// everything back into one globally sorted stream, cascading through
// merge generations whenever the live run count exceeds the fan-in.
type sorter struct {
	dir     string
	prefix  string
	ct      *diskio.Counter
	cdc     codec.Codec
	capRecs int
	fanIn   int

	buf     []rec
	runs    []string
	seq     int
	spilled int // initial sorted runs written to disk
	gens    int // merge rounds performed (intermediate + final)
	payload []byte
	frame   []byte
}

func newSorter(dir, prefix string, ct *diskio.Counter, cdc codec.Codec, budget int64) *sorter {
	capRecs, fanIn := sortBudget(budget)
	s := &sorter{dir: dir, prefix: prefix, ct: ct, cdc: cdc, capRecs: capRecs, fanIn: fanIn}
	if capRecs > 0 {
		s.buf = make([]rec, 0, capRecs)
	}
	return s
}

func (s *sorter) add(r rec) error {
	s.buf = append(s.buf, r)
	if s.capRecs > 0 && len(s.buf) >= s.capRecs {
		return s.spill()
	}
	return nil
}

// spill sorts the current run and writes it as one codec-framed file.
func (s *sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sortRecs(s.buf)
	path, err := s.writeRun(s.buf)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	s.spilled++
	s.buf = s.buf[:0]
	return nil
}

// sortRecs sorts a run. recCompare is a total order over all five fields,
// so equal records are identical and the unstable sort's output bytes do
// not depend on the algorithm.
func sortRecs(recs []rec) { slices.SortFunc(recs, recCompare) }

// writeRun writes recs (already sorted) as a run file: a sequence of
// codec frames of spillFrameRecs records each. Physical frame bytes
// land on the spill counter's physical twin; the logical charge is the
// raw record stream, written sequentially — the paper's accounting
// discipline, applied to ingest scratch I/O.
func (s *sorter) writeRun(recs []rec) (string, error) {
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.run", s.prefix, s.seq))
	s.seq++
	f, err := diskio.Create(path, diskio.PhysFor(s.ct))
	if err != nil {
		return "", err
	}
	var physOff, logical int64
	for off := 0; off < len(recs); off += spillFrameRecs {
		end := off + spillFrameRecs
		if end > len(recs) {
			end = len(recs)
		}
		s.payload = s.payload[:0]
		for _, r := range recs[off:end] {
			s.payload = appendRec(s.payload, r)
		}
		s.frame = codec.AppendFrame(s.frame[:0], s.cdc, s.payload)
		if _, err := f.WriteAtClass(s.frame, physOff, diskio.SeqWrite); err != nil {
			f.Close()
			return "", err
		}
		physOff += int64(len(s.frame))
		logical += int64(len(s.payload))
	}
	diskio.NewAccountant(s.ct).WriteAtClass(logical, 0, diskio.SeqWrite)
	return path, f.Close()
}

// finish sorts the in-memory tail and returns the globally sorted
// iterator. With spilled runs it first cascades merge generations until
// at most fanIn runs remain, then merges those (plus the tail) live.
func (s *sorter) finish() (*mergeIter, error) {
	sortRecs(s.buf)
	for len(s.runs) > s.fanIn {
		var next []string
		for i := 0; i < len(s.runs); i += s.fanIn {
			j := i + s.fanIn
			if j > len(s.runs) {
				j = len(s.runs)
			}
			if j-i == 1 {
				next = append(next, s.runs[i])
				continue
			}
			merged, err := s.mergeToFile(s.runs[i:j])
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		s.runs = next
		s.gens++
	}
	if len(s.runs) > 0 {
		s.gens++
	}
	return s.newMergeIter(s.runs, s.buf)
}

// mergeToFile merges the given runs into one new run file and removes
// the inputs.
func (s *sorter) mergeToFile(runs []string) (string, error) {
	it, err := s.newMergeIter(runs, nil)
	if err != nil {
		return "", err
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.run", s.prefix, s.seq))
	s.seq++
	f, err := diskio.Create(path, diskio.PhysFor(s.ct))
	if err != nil {
		it.close()
		return "", err
	}
	var physOff, logical int64
	count := 0
	s.payload = s.payload[:0]
	flush := func() error {
		if len(s.payload) == 0 {
			return nil
		}
		s.frame = codec.AppendFrame(s.frame[:0], s.cdc, s.payload)
		if _, err := f.WriteAtClass(s.frame, physOff, diskio.SeqWrite); err != nil {
			return err
		}
		physOff += int64(len(s.frame))
		logical += int64(len(s.payload))
		s.payload = s.payload[:0]
		return nil
	}
	for {
		r, ok, err := it.next()
		if err != nil {
			it.close()
			f.Close()
			return "", err
		}
		if !ok {
			break
		}
		s.payload = appendRec(s.payload, r)
		count++
		if count%spillFrameRecs == 0 {
			if err := flush(); err != nil {
				it.close()
				f.Close()
				return "", err
			}
		}
	}
	if err := flush(); err != nil {
		f.Close()
		return "", err
	}
	diskio.NewAccountant(s.ct).WriteAtClass(logical, 0, diskio.SeqWrite)
	if err := f.Close(); err != nil {
		return "", err
	}
	for _, r := range runs {
		if err := os.Remove(r); err != nil {
			return "", err
		}
	}
	return path, nil
}

// runReader streams one run file frame by frame, holding a single
// decoded frame (~32 KiB) in memory.
type runReader struct {
	f       *diskio.File
	acct    *diskio.Accountant
	path    string
	physOff int64
	logOff  int64
	size    int64
	head    []byte
	raw     []byte
	payload []byte
	recs    []rec
	i       int
}

func openRun(path string, ct *diskio.Counter) (*runReader, error) {
	f, err := diskio.OpenRead(path, diskio.PhysFor(ct))
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &runReader{f: f, acct: diskio.NewAccountant(ct), path: path, size: size,
		head: make([]byte, codec.HeaderSize)}, nil
}

// next returns the next record, or ok=false at end of run. Frame
// corruption — a flipped bit on a spill read — surfaces as
// codec.ErrCorrupt through DecodeFrame's CRC.
func (r *runReader) next() (rec, bool, error) {
	if r.i >= len(r.recs) {
		if r.physOff >= r.size {
			return rec{}, false, nil
		}
		if _, err := r.f.ReadAtClass(r.head, r.physOff, diskio.SeqRead); err != nil {
			return rec{}, false, fmt.Errorf("ingest: spill %s: %w", r.path, err)
		}
		h, err := codec.ParseHeader(r.head)
		if err != nil {
			return rec{}, false, fmt.Errorf("ingest: spill %s: %w", r.path, err)
		}
		n := h.FrameLen()
		if cap(r.raw) < n {
			r.raw = make([]byte, n)
		}
		r.raw = r.raw[:n]
		if _, err := r.f.ReadAtClass(r.raw, r.physOff, diskio.SeqRead); err != nil {
			return rec{}, false, fmt.Errorf("ingest: spill %s: %w", r.path, err)
		}
		// The header was read twice (once to size the frame, once as the
		// frame's prefix); a transient fault on either read shows up as a
		// disagreement the frame CRC alone cannot see.
		if !bytes.Equal(r.head, r.raw[:codec.HeaderSize]) {
			return rec{}, false, fmt.Errorf("%w: spill %s: header re-read mismatch", codec.ErrCorrupt, r.path)
		}
		r.payload, _, err = codec.DecodeFrame(r.payload[:0], r.raw)
		if err != nil {
			return rec{}, false, fmt.Errorf("ingest: spill %s: %w", r.path, err)
		}
		if len(r.payload)%recSize != 0 {
			return rec{}, false, fmt.Errorf("%w: spill %s frame of %d bytes not record-aligned",
				codec.ErrCorrupt, r.path, len(r.payload))
		}
		r.recs = r.recs[:0]
		for off := 0; off < len(r.payload); off += recSize {
			r.recs = append(r.recs, decodeRec(r.payload[off:]))
		}
		r.acct.ReadAtClass(int64(len(r.payload)), r.logOff, diskio.SeqRead)
		r.physOff += int64(n)
		r.logOff += int64(len(r.payload))
		r.i = 0
	}
	out := r.recs[r.i]
	r.i++
	return out, true, nil
}

func (r *runReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// mergeIter is the k-way merge: a binary min-heap over run readers plus
// the sorter's in-memory tail, ordered by the record comparator with
// the source index as tie-break (ties are bit-identical records, so the
// break only stabilises the heap, never the output).
type mergeIter struct {
	readers []*runReader
	mem     []rec
	memI    int
	heap    []mergeHead
}

// mergeHead is one heap entry: the next record of source idx. Index
// len(readers) is the in-memory tail.
type mergeHead struct {
	r   rec
	idx int
}

func (s *sorter) newMergeIter(runs []string, mem []rec) (*mergeIter, error) {
	m := &mergeIter{mem: mem}
	for _, path := range runs {
		rr, err := openRun(path, s.ct)
		if err != nil {
			m.close()
			return nil, err
		}
		m.readers = append(m.readers, rr)
	}
	for i, rr := range m.readers {
		r, ok, err := rr.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.push(mergeHead{r, i})
		}
	}
	if len(m.mem) > 0 {
		m.push(mergeHead{m.mem[0], len(m.readers)})
		m.memI = 1
	}
	return m, nil
}

func headLess(x, y mergeHead) bool {
	if c := recCompare(x.r, y.r); c != 0 {
		return c < 0
	}
	return x.idx < y.idx
}

func (m *mergeIter) push(h mergeHead) {
	m.heap = append(m.heap, h)
	i := len(m.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !headLess(m.heap[i], m.heap[p]) {
			break
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *mergeIter) popReplace(h mergeHead, replace bool) mergeHead {
	top := m.heap[0]
	if replace {
		m.heap[0] = h
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	// Sift down.
	i := 0
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && headLess(m.heap[l], m.heap[min]) {
			min = l
		}
		if r < n && headLess(m.heap[r], m.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
	return top
}

// next returns the globally next record, refilling from whichever
// source produced it.
func (m *mergeIter) next() (rec, bool, error) {
	if len(m.heap) == 0 {
		return rec{}, false, nil
	}
	top := m.heap[0]
	if top.idx == len(m.readers) {
		if m.memI < len(m.mem) {
			m.popReplace(mergeHead{m.mem[m.memI], top.idx}, true)
			m.memI++
		} else {
			m.popReplace(mergeHead{}, false)
		}
		return top.r, true, nil
	}
	r, ok, err := m.readers[top.idx].next()
	if err != nil {
		return rec{}, false, err
	}
	if ok {
		m.popReplace(mergeHead{r, top.idx}, true)
	} else {
		m.popReplace(mergeHead{}, false)
	}
	return top.r, true, nil
}

// close releases every reader (idempotent; run files are removed with
// the spill directory by the builder).
func (m *mergeIter) close() {
	for _, rr := range m.readers {
		rr.close()
	}
}
