// Package checkpoint implements superstep checkpointing for HybridGraph's
// fault tolerance: per-worker snapshots of vertex values, flag vectors and
// parked inbox messages, plus the master's record of job-level scheduling
// state (hybrid's mode history). Every file is written by codec.WriteFile
// and read by codec.ReadFile under every codec, charged as the sequential
// write or read of its logical bytes, so checkpoint overhead is charged to
// the same cost model as every other byte the system moves.
//
// Recovery must restore *mode-specific* state, not just vertex values
// (push parks messages in inboxes, b-pull re-derives them from responding
// flags and broadcast columns — Besta et al.'s push/pull communication
// asymmetry), which is why a Snapshot carries all of them.
//
// Durability protocol (the Pregel/Giraph commit rule): every worker writes
// its snapshot to a temporary file and atomically renames it into place;
// the master then writes its own record and finally an atomic commit
// marker. A checkpoint without a marker never existed — a crash mid-write
// can only lose the in-flight checkpoint, never corrupt an older one.
// Every file ends in a CRC32 of its payload, verified on read.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/vertexfile"
)

const (
	magic       = "HGCK"
	version     = 1
	kindWorker  = 1
	kindMaster  = 2
	recordBytes = 32
)

// Snapshot is one worker's superstep-consistent state after superstep Step:
// everything the worker needs to resume at Step+1.
type Snapshot struct {
	Step   int
	Worker int
	// Records are the worker's vertex records including both broadcast
	// columns, so b-pull's parity-indexed pulls replay correctly.
	Records []vertexfile.Record
	// Respond and Active are the flag vectors' words by superstep parity.
	Respond [2][]uint64
	Active  [2][]uint64
	// BlockRes is the per-Vblock responding indicator by parity (b-pull).
	BlockRes [2][]bool
	// Pending are the parked inbox messages by parity (push): messages
	// delivered during Step for consumption at Step+1. A snapshot read
	// from disk aliases the file's bytes here.
	Pending [2]comm.Records
}

// Master is the job-level state the master commits with a checkpoint: the
// mode scheduler's state, the last reduced aggregate and, under the
// reassign policy, the ownership table. Every engine writes Rco, its
// observed combining ratio; only hybrid writes Modes, its whole schedule,
// and a LastSwitch other than 0, without which a restored switcher would
// re-learn from nothing. The fixed schedules are rebuilt, not restored.
type Master struct {
	Step       int
	Modes      []string
	LastSwitch int
	Rco        float64
	PrevAgg    float64

	// Block-ownership state under the reassign recovery policy, written as
	// optional trailing fields (a record from before this version simply
	// lacks them; Epoch 0 means "no ownership information"). Dead marks
	// permanently-lost workers; Hosts[w] names the survivor serving worker
	// w's partition (w itself when alive). A resume applies them before the
	// first superstep so a restarted daemon continues with the shrunken
	// worker set instead of waiting on a machine that no longer exists.
	Epoch int64
	Dead  []bool
	Hosts []int
}

// WriteSnapshot atomically writes s to path, charging the bytes to ct as
// sequential writes. Under a non-trivial codec the serialized snapshot
// is stored as one compressed frame — the logical charge and the
// returned size are the uncompressed length either way, so checkpoint
// cost in the paper's model is codec-independent. Returns the logical
// file size.
func WriteSnapshot(path string, ct *diskio.Counter, s *Snapshot, cdc codec.Codec) (int64, error) {
	p := make([]byte, 0, 64+len(s.Records)*recordBytes)
	p = appendU32(p, kindWorker)
	p = appendU32(p, uint32(s.Step))
	p = appendU32(p, uint32(s.Worker))
	p = appendU32(p, uint32(len(s.Records)))
	for _, r := range s.Records {
		p = appendU32(p, uint32(r.ID))
		p = appendU32(p, r.OutDeg)
		p = appendF64(p, r.Val)
		p = appendF64(p, r.Bcast[0])
		p = appendF64(p, r.Bcast[1])
	}
	for par := 0; par < 2; par++ {
		p = appendWords(p, s.Respond[par])
	}
	for par := 0; par < 2; par++ {
		p = appendWords(p, s.Active[par])
	}
	for par := 0; par < 2; par++ {
		p = appendU32(p, uint32(len(s.BlockRes[par])))
		for _, b := range s.BlockRes[par] {
			p = append(p, boolByte(b))
		}
	}
	for par := 0; par < 2; par++ {
		p = appendU32(p, uint32(s.Pending[par].Len()))
		p = append(p, s.Pending[par]...)
	}
	return writeFile(path, ct, p, cdc)
}

// ReadSnapshot reads and CRC-verifies a worker snapshot, charging the bytes
// to ct as sequential reads. The file is self-describing: a codec-framed
// snapshot is detected by its frame magic and decoded transparently, with
// the logical charge equal to the uncompressed read.
func ReadSnapshot(path string, ct *diskio.Counter) (*Snapshot, error) {
	p, err := readFile(path, ct)
	if err != nil {
		return nil, err
	}
	r := &reader{b: p}
	if k := r.u32(); k != kindWorker && r.err == nil {
		return nil, fmt.Errorf("checkpoint: %s is not a worker snapshot (kind %d)", path, k)
	}
	s := &Snapshot{Step: int(r.u32()), Worker: int(r.u32())}
	n := int(r.u32())
	if r.err == nil && n >= 0 && n <= r.remaining()/recordBytes {
		s.Records = make([]vertexfile.Record, n)
		for i := range s.Records {
			s.Records[i] = vertexfile.Record{
				ID:     graph.VertexID(r.u32()),
				OutDeg: r.u32(),
				Val:    r.f64(),
				Bcast:  [2]float64{r.f64(), r.f64()},
			}
		}
	} else if r.err == nil {
		r.err = fmt.Errorf("checkpoint: implausible record count %d", n)
	}
	for par := 0; par < 2; par++ {
		s.Respond[par] = r.words()
	}
	for par := 0; par < 2; par++ {
		s.Active[par] = r.words()
	}
	for par := 0; par < 2; par++ {
		n := int(r.u32())
		if r.err == nil && n > 0 && n <= r.remaining() {
			s.BlockRes[par] = make([]bool, n)
			for i := range s.BlockRes[par] {
				s.BlockRes[par][i] = r.u8() != 0
			}
		}
	}
	for par := 0; par < 2; par++ {
		s.Pending[par] = r.bytes(int(r.u32()) * comm.MsgWireSize)
	}
	if r.err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, r.err)
	}
	return s, nil
}

// WriteMaster atomically writes the master record to path.
func WriteMaster(path string, ct *diskio.Counter, m *Master, cdc codec.Codec) (int64, error) {
	p := make([]byte, 0, 64+len(m.Modes)*8)
	p = appendU32(p, kindMaster)
	p = appendU32(p, uint32(m.Step))
	p = appendU32(p, uint32(len(m.Modes)))
	for _, mode := range m.Modes {
		p = append(p, byte(len(mode)))
		p = append(p, mode...)
	}
	p = appendU32(p, 0) // retired slot: a Q^t sign history, now always empty
	p = appendU64(p, uint64(int64(m.LastSwitch)))
	p = appendF64(p, m.Rco)
	p = appendF64(p, m.PrevAgg)
	if m.Epoch != 0 {
		p = appendU64(p, uint64(m.Epoch))
		p = appendU32(p, uint32(len(m.Dead)))
		for _, d := range m.Dead {
			p = append(p, boolByte(d))
		}
		p = appendU32(p, uint32(len(m.Hosts)))
		for _, h := range m.Hosts {
			p = appendU64(p, uint64(int64(h)))
		}
	}
	return writeFile(path, ct, p, cdc)
}

// ReadMaster reads and CRC-verifies a master record.
func ReadMaster(path string, ct *diskio.Counter) (*Master, error) {
	p, err := readFile(path, ct)
	if err != nil {
		return nil, err
	}
	r := &reader{b: p}
	if k := r.u32(); k != kindMaster && r.err == nil {
		return nil, fmt.Errorf("checkpoint: %s is not a master record (kind %d)", path, k)
	}
	m := &Master{Step: int(r.u32())}
	n := int(r.u32())
	if r.err == nil && n >= 0 && n <= r.remaining() {
		m.Modes = make([]string, n)
		for i := range m.Modes {
			l := int(r.u8())
			m.Modes[i] = r.str(l)
		}
	}
	// Retired slot: older records carry a Q^t sign history here, one
	// byte per superstep; skip it so their checkpoints still resume.
	r.str(int(r.u32()))
	m.LastSwitch = int(int64(r.u64()))
	m.Rco = r.f64()
	m.PrevAgg = r.f64()
	if r.err == nil && r.remaining() > 0 {
		// Optional ownership trailer (reassign policy).
		m.Epoch = int64(r.u64())
		n = int(r.u32())
		if r.err == nil && n > 0 && n <= r.remaining() {
			m.Dead = make([]bool, n)
			for i := range m.Dead {
				m.Dead[i] = r.u8() != 0
			}
		}
		n = int(r.u32())
		if r.err == nil && n > 0 && n <= r.remaining()/8 {
			m.Hosts = make([]int, n)
			for i := range m.Hosts {
				m.Hosts[i] = int(int64(r.u64()))
			}
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, r.err)
	}
	return m, nil
}

// Coordinator names a job's checkpoint files under its work directory and
// implements the master's commit protocol.
type Coordinator struct {
	Dir string
}

// SnapshotPath names worker w's snapshot of the checkpoint at step.
func (c Coordinator) SnapshotPath(step, worker int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("ckpt-%06d-w%d.dat", step, worker))
}

// MasterPath names the master record of the checkpoint at step.
func (c Coordinator) MasterPath(step int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("ckpt-%06d-master.dat", step))
}

func (c Coordinator) commitPath(step int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("ckpt-%06d.commit", step))
}

// Commit atomically publishes the checkpoint at step: after Commit returns,
// LastCommitted will report it. Call only once every snapshot and the
// master record are durably in place. The marker is written, fsynced and
// renamed through the diskio fault layer: a commit marker that survives
// a power cut while its snapshots do not is exactly the torn state the
// fault campaign exists to catch.
func (c Coordinator) Commit(step int, ct *diskio.Counter) error {
	return diskio.WriteFileSync(c.commitPath(step), []byte(strconv.Itoa(step)), ct, diskio.SeqWrite)
}

// LastCommitted reports the newest committed checkpoint step, if any.
// Uncommitted (marker-less) snapshot files are invisible here, which is
// what makes a crash mid-checkpoint harmless.
func (c Coordinator) LastCommitted() (int, bool) {
	steps := c.Committed()
	if len(steps) == 0 {
		return 0, false
	}
	return steps[0], true
}

// Committed lists every committed checkpoint step, newest first. More
// than one exists when the retention policy keeps a fallback: a restore
// that fails to verify the newest checkpoint (torn by a storage fault)
// walks down this list before giving up.
func (c Coordinator) Committed() []int {
	ents, err := os.ReadDir(c.Dir)
	if err != nil {
		return nil
	}
	var steps []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".commit") {
			continue
		}
		s, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".commit"))
		if err != nil {
			continue
		}
		steps = append(steps, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	return steps
}

// Remove deletes the checkpoint at step (marker first, so a partial removal
// degrades to an uncommitted checkpoint, never a corrupt committed one).
// Removal failures are joined and reported: a surviving commit marker
// would make a later LastCommitted prefer this stale checkpoint over a
// newer one whose files it then fails to verify, so callers must at least
// log the error. Already-missing files are not errors.
func (c Coordinator) Remove(step, workers int) error {
	var errs []error
	rm := func(path string) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err)
		}
	}
	rm(c.commitPath(step))
	rm(c.MasterPath(step))
	for w := 0; w < workers; w++ {
		rm(c.SnapshotPath(step, w))
	}
	return errors.Join(errs...)
}

// writeFile wraps payload in magic, version and CRC and writes it to path
// atomically (tmp + fsync + rename) as one sequential write, under cdc
// (codec.WriteFile). The fsync before the rename is the durability half
// of the commit rule: without it a power cut can leave a fully renamed,
// fully referenced snapshot whose bytes never reached the platter.
// Returns the logical file size.
func writeFile(path string, ct *diskio.Counter, payload []byte, cdc codec.Codec) (int64, error) {
	buf := make([]byte, 0, len(magic)+8+len(payload)+4)
	buf = append(buf, magic...)
	buf = appendU32(buf, version)
	buf = append(buf, payload...)
	buf = appendU32(buf, crc32.ChecksumIEEE(payload))
	if err := codec.WriteFile(path, ct, cdc, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// readFile reads a file writeFile wrote under any codec (codec.ReadFile,
// charged as the sequential read of its logical bytes), verifies magic,
// version and CRC, and returns the payload.
func readFile(path string, ct *diskio.Counter) ([]byte, error) {
	buf, err := codec.ReadFile(path, ct)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(buf) < len(magic)+8+4 {
		return nil, fmt.Errorf("checkpoint: %s truncated (%d bytes)", path, len(buf))
	}
	if string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: %s has bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[len(magic):]); v != version {
		return nil, fmt.Errorf("checkpoint: %s has version %d, want %d", path, v, version)
	}
	payload := buf[len(magic)+4 : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: %s CRC mismatch (got %08x, want %08x)", path, got, want)
	}
	return payload, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendWords(b []byte, w []uint64) []byte {
	b = appendU32(b, uint32(len(w)))
	for _, v := range w {
		b = appendU64(b, v)
	}
	return b
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// reader decodes a payload with sticky error tracking: after the first
// malformed field every subsequent read is a zero value and the error
// surfaces once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < n {
		r.err = fmt.Errorf("payload truncated at offset %d (need %d bytes)", r.off, n)
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str(n int) string { return string(r.bytes(n)) }

// bytes returns the next n bytes as they lie in the payload.
func (r *reader) bytes(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *reader) words() []uint64 {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > r.remaining()/8 {
		r.err = fmt.Errorf("implausible word count %d", n)
		return nil
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.u64()
	}
	return w
}
