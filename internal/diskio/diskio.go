// Package diskio provides the byte-accounted file layer underneath every
// on-disk store in HybridGraph. The paper's whole argument is about *which
// class* of I/O each approach performs — random writes of spilled messages
// in push, random reads of source-vertex values in pull/b-pull, sequential
// scans of edge blocks — so every read and write is tagged with an access
// class and tallied in a per-worker Counter. A Profile holds the device and
// network throughputs from the paper's Table 3 and converts byte tallies to
// the simulated seconds the experiment harness reports.
package diskio

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Class labels one I/O access pattern, mirroring the throughput rows of
// Table 3 (random read srr, random write srw, sequential read ssr; we add
// sequential write, benchmarked equal to sequential read on both clusters).
type Class int

const (
	RandRead Class = iota
	RandWrite
	SeqRead
	SeqWrite
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case RandRead:
		return "rand-read"
	case RandWrite:
		return "rand-write"
	case SeqRead:
		return "seq-read"
	case SeqWrite:
		return "seq-write"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// PageSize is the device transfer granularity: a random access of any
// size moves at least one page, which is the read/write amplification that
// separates per-vertex random access from clustered access in the paper's
// measured I/O (Fig. 10).
const PageSize = 4096

// Counter tallies bytes and operations per access class. Logical bytes are
// what the caller asked for (the quantities in Eqs. 7, 8 and 11); device
// bytes round random accesses up to page transfers and are what the
// platters actually move (the quantity the paper's I/O plots measure).
// Safe for concurrent use; workers share one counter across their stores.
type Counter struct {
	bytes [numClasses]atomic.Int64
	dev   [numClasses]atomic.Int64
	ops   [numClasses]atomic.Int64
	phys  atomic.Pointer[Counter]
}

// Add records n logical bytes of class c as one operation with an equal
// device transfer (used for sequential access and direct accounting).
func (ct *Counter) Add(c Class, n int64) { ct.AddDev(c, n, n) }

// AddDev records n logical bytes moved with dev device bytes. When a
// physical twin is attached (SetPhys), the same charge is mirrored into
// it: for uncompressed files the bytes that hit the device *are* the
// logical bytes, so the physical dimension tracks charge-for-charge.
// Compressed stores instead charge logical bytes through an Accountant
// (which does not mirror) and let their real frame I/O land on the twin.
func (ct *Counter) AddDev(c Class, n, dev int64) { ct.addOps(c, n, dev, 1, true) }

// addOps is the tally update: n logical and dev device bytes moved by ops
// operations, mirrored into the physical twin when asked.
func (ct *Counter) addOps(c Class, n, dev, ops int64, mirror bool) {
	ct.bytes[c].Add(n)
	ct.dev[c].Add(dev)
	ct.ops[c].Add(ops)
	if !mirror {
		return
	}
	if p := ct.phys.Load(); p != nil {
		p.addOps(c, n, dev, ops, false)
	}
}

// SetPhys attaches the counter that receives this counter's physical
// (on-device) dimension. Passing nil detaches it.
func (ct *Counter) SetPhys(p *Counter) { ct.phys.Store(p) }

// Phys reports the attached physical twin, or nil.
func (ct *Counter) Phys() *Counter { return ct.phys.Load() }

// PhysFor resolves where a store's real compressed-frame I/O should be
// charged: ct's physical twin when one is attached, otherwise a
// throwaway counter so callers that never wired a twin (unit tests,
// one-off tools) keep exact logical accounting and simply drop the
// physical dimension.
func PhysFor(ct *Counter) *Counter {
	if p := ct.Phys(); p != nil {
		return p
	}
	return &Counter{}
}

// DevBytes reports accumulated device bytes of class c.
func (ct *Counter) DevBytes(c Class) int64 { return ct.dev[c].Load() }

// Bytes reports accumulated bytes of class c.
func (ct *Counter) Bytes(c Class) int64 { return ct.bytes[c].Load() }

// Ops reports accumulated operations of class c.
func (ct *Counter) Ops(c Class) int64 { return ct.ops[c].Load() }

// Total reports accumulated bytes across all classes.
func (ct *Counter) Total() int64 {
	var t int64
	for c := Class(0); c < numClasses; c++ {
		t += ct.Bytes(c)
	}
	return t
}

// Snapshot captures the current tallies.
func (ct *Counter) Snapshot() Snapshot {
	var s Snapshot
	for c := Class(0); c < numClasses; c++ {
		s.Bytes[c] = ct.Bytes(c)
		s.Dev[c] = ct.DevBytes(c)
		s.Ops[c] = ct.Ops(c)
	}
	return s
}

// Reset zeroes all tallies.
func (ct *Counter) Reset() {
	for c := Class(0); c < numClasses; c++ {
		ct.bytes[c].Store(0)
		ct.dev[c].Store(0)
		ct.ops[c].Store(0)
	}
}

// Snapshot is an immutable copy of a Counter's tallies. Subtracting two
// snapshots yields the I/O performed in between (one superstep, say).
type Snapshot struct {
	Bytes [numClasses]int64
	Dev   [numClasses]int64
	Ops   [numClasses]int64
}

// Sub returns s - o component-wise.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	var d Snapshot
	for c := Class(0); c < numClasses; c++ {
		d.Bytes[c] = s.Bytes[c] - o.Bytes[c]
		d.Dev[c] = s.Dev[c] - o.Dev[c]
		d.Ops[c] = s.Ops[c] - o.Ops[c]
	}
	return d
}

// Add returns s + o component-wise.
func (s Snapshot) Add(o Snapshot) Snapshot {
	var d Snapshot
	for c := Class(0); c < numClasses; c++ {
		d.Bytes[c] = s.Bytes[c] + o.Bytes[c]
		d.Dev[c] = s.Dev[c] + o.Dev[c]
		d.Ops[c] = s.Ops[c] + o.Ops[c]
	}
	return d
}

// Total reports total logical bytes in the snapshot.
func (s Snapshot) Total() int64 {
	var t int64
	for c := Class(0); c < numClasses; c++ {
		t += s.Bytes[c]
	}
	return t
}

// DevTotal reports total device bytes — what the paper's I/O plots show.
func (s Snapshot) DevTotal() int64 {
	var t int64
	for c := Class(0); c < numClasses; c++ {
		t += s.Dev[c]
	}
	return t
}

// String renders a compact per-class byte summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("rr=%d rw=%d sr=%d sw=%d", s.Bytes[RandRead], s.Bytes[RandWrite],
		s.Bytes[SeqRead], s.Bytes[SeqWrite])
}

// File wraps an *os.File with class-tagged accounting. All stores in the
// repository perform their I/O through File so that the per-worker Counter
// sees every byte. Charging and moving bytes are separate: the charge
// rules live in one Accountant (held here in mirror mode, because an
// uncompressed file's device bytes are its logical bytes), and the
// ReadAtClass/WriteAtClass family is simply "move, then charge what
// moved". Stores whose cost model is per record but whose execution is
// per buffer or page call Charge and ReadUncharged/WriteUncharged apart.
type File struct {
	f    *os.File
	path string
	fs   *FaultFS // fault injector covering path, or nil
	acct Accountant
}

func newFile(f *os.File, path string, fs *FaultFS, ct *Counter) *File {
	return &File{f: f, path: path, fs: fs, acct: Accountant{ct: ct, mirror: true, lastPage: -1}}
}

// Create creates (truncating) an accounted file.
func Create(path string, ct *Counter) (*File, error) {
	path = filepath.Clean(path)
	fs := injectorFor(path)
	if fs != nil {
		if err := fs.create(path); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return newFile(f, path, fs, ct), nil
}

// Open opens an existing file for accounted reading and writing.
func Open(path string, ct *Counter) (*File, error) {
	path = filepath.Clean(path)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return openExisting(f, path, ct)
}

// OpenRead opens an existing file for accounted read-only access. Catalog
// stores are shared by concurrent jobs and must never be written, so the
// OS-level permission backs up the convention.
func OpenRead(path string, ct *Counter) (*File, error) {
	path = filepath.Clean(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return openExisting(f, path, ct)
}

// openExisting registers an already-opened file with the fault injector
// covering path, if any.
func openExisting(f *os.File, path string, ct *Counter) (*File, error) {
	fs := injectorFor(path)
	if fs != nil {
		var size int64
		if st, serr := f.Stat(); serr == nil {
			size = st.Size()
		}
		if err := fs.open(path, size); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newFile(f, path, fs, ct), nil
}

// ReadUncharged performs the device read and charges nothing, routed
// through the fault injector when one covers this file; c only labels an
// injected fault. Real read errors pass through unwrapped (io.EOF
// semantics matter to callers); injected faults surface as *Error.
func (af *File) ReadUncharged(p []byte, off int64, c Class) (int, error) {
	if af.fs != nil {
		return af.fs.readAt(af.path, af.f, p, off, c.String())
	}
	return af.f.ReadAt(p, off)
}

// WriteUncharged performs the device write and charges nothing. Injected
// faults and real write errors both surface as a typed, path-and-class-
// annotated *Error — a spilled message or log append that fails must name
// what failed.
func (af *File) WriteUncharged(p []byte, off int64, c Class) (int, error) {
	if af.fs != nil {
		return af.fs.writeAt(af.path, af.f, p, off, c.String())
	}
	n, err := af.f.WriteAt(p, off)
	if err != nil {
		return n, &Error{Op: "write", Path: af.path, Class: c.String(), Kind: KindIO, Err: err}
	}
	return n, nil
}

// Charge records an n-byte access of class c at off exactly as
// ReadAtClass/WriteAtClass would for a full transfer, moving no bytes.
func (af *File) Charge(n, off int64, c Class) { af.acct.Charge(n, off, c) }

// ChargeDev is Charge with an explicit device charge, for callers that
// manage their own page locality (b-pull's Pull-Respond keeps a Vblock's
// pages hot across a superstep's scans).
func (af *File) ChargeDev(n, off int64, c Class, dev int64) { af.acct.ChargeDev(n, off, c, dev) }

// ChargeDevRun is count ChargeDev calls: dev in total, the last at lastOff.
func (af *File) ChargeDevRun(n int64, count int, lastOff int64, c Class, dev int64) {
	af.acct.ChargeDevRun(n, count, lastOff, c, dev)
}

// Name reports the underlying file path.
func (af *File) Name() string { return af.f.Name() }

// SetCounter retargets accounting to a different counter. The stores are
// built under a worker's loading counter (Fig. 16 reports loading cost
// separately) and then retargeted to its computation counter.
func (af *File) SetCounter(ct *Counter) { af.acct.SetCounter(ct) }

// Close closes the underlying file. Closing does not sync: bytes
// written but never Synced are still lost to a simulated power cut.
func (af *File) Close() error {
	if af.fs != nil {
		return af.fs.close(af.path, af.f)
	}
	return af.f.Close()
}

// Sync flushes the file to stable storage — the durability point of the
// fault model: only synced bytes survive a simulated power cut. The
// flush is charged to the counter as one zero-byte sequential-write
// operation, so checkpoint/log deltas see the op without perturbing the
// byte tallies Eqs. (7)/(8) reason about.
func (af *File) Sync() error {
	var err error
	if af.fs != nil {
		err = af.fs.sync(af.path, af.f)
	} else if serr := af.f.Sync(); serr != nil {
		err = &Error{Op: "sync", Path: af.path, Kind: KindIO, Err: serr}
	}
	if err == nil {
		af.acct.Sync()
	}
	return err
}

// Size reports the current file size.
func (af *File) Size() (int64, error) {
	st, err := af.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ReadAt reads len(p) bytes at off. The access is classified automatically:
// a read that continues exactly where the previous access on this File
// ended counts as sequential, anything else as random. The classification
// matches how the paper reasons about Eblock scans (sequential) versus
// svertex lookups (random).
func (af *File) ReadAt(p []byte, off int64) (int, error) {
	n, err := af.ReadUncharged(p, off, af.acct.classify(off, RandRead, SeqRead))
	af.acct.chargeAuto(int64(n), off, RandRead, SeqRead)
	return n, err
}

// WriteAt writes p at off with automatic sequential/random classification.
func (af *File) WriteAt(p []byte, off int64) (int, error) {
	n, err := af.WriteUncharged(p, off, af.acct.classify(off, RandWrite, SeqWrite))
	af.acct.chargeAuto(int64(n), off, RandWrite, SeqWrite)
	return n, err
}

// ReadAtClass reads with an explicit class, for callers that know the
// device-level pattern better than position heuristics do (e.g. Giraph's
// message spill is written in arrival order, which the paper charges as
// random writes regardless of file offsets, because the *logical* locality
// over destination vertices is poor).
func (af *File) ReadAtClass(p []byte, off int64, c Class) (int, error) {
	n, err := af.ReadUncharged(p, off, c)
	af.acct.Charge(int64(n), off, c)
	return n, err
}

// WriteAtClass writes with an explicit class.
func (af *File) WriteAtClass(p []byte, off int64, c Class) (int, error) {
	n, err := af.WriteUncharged(p, off, c)
	af.acct.Charge(int64(n), off, c)
	return n, err
}
