package diskio

import "sync"

// Accountant is the one implementation of the charge rules: each access
// is charged under the class its caller names, random classes pay per-page
// device amplification except on the last-touched page, and a sync is a
// zero-byte op. It charges a Counter without performing any I/O. Every
// File holds one (in mirror mode, so its charges also reach the counter's
// physical twin) and charges what its reads and writes moved; a bare
// Accountant replays the same sequence with no file behind it.
// Compressed stores use a bare one to keep the *logical* byte dimension
// byte-identical to an uncompressed run: every logical access is charged
// here exactly as the raw File would have charged it, while the store's
// real frame I/O goes through an ordinary File opened on the counter's
// physical twin. A bare Accountant applies the raw
// (non-mirroring) tally update, so its charges never leak into the
// physical dimension; a mirroring one (NewMirrorAccountant) charges for
// a store whose file holds its logical bytes as they are.
type Accountant struct {
	mu       sync.Mutex
	ct       *Counter
	mirror   bool  // also charge ct's physical twin (File's accountant)
	lastPage int64 // most recently touched page, for device-byte accounting
}

// NewAccountant starts a charge machine in the state of a freshly
// created or opened File.
func NewAccountant(ct *Counter) *Accountant {
	return &Accountant{ct: ct, lastPage: -1}
}

// NewMirrorAccountant is NewAccountant whose charges also reach ct's
// physical twin, as a File's own charges do.
func NewMirrorAccountant(ct *Counter) *Accountant {
	return &Accountant{ct: ct, mirror: true, lastPage: -1}
}

// SetCounter retargets accounting to a different counter.
func (a *Accountant) SetCounter(ct *Counter) {
	a.mu.Lock()
	a.ct = ct
	a.mu.Unlock()
}

func (a *Accountant) add(ct *Counter, c Class, n, dev int64) { ct.addOps(c, n, dev, 1, a.mirror) }

// devCharge computes the device bytes an access moves and records the page
// position. Sequential classes transfer what they read; random classes
// transfer whole pages, except repeated touches of the most recent page
// (b-pull's svertex reads ascend within an Eblock scan and so coalesce,
// while the pull baseline's scattered misses each pay a page — the
// mechanism behind Fig. 10's orders-of-magnitude gap). Callers hold a.mu.
func (a *Accountant) devCharge(off, n int64, c Class) int64 {
	if n <= 0 {
		return 0
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	if c == SeqRead || c == SeqWrite {
		a.lastPage = last
		return n
	}
	var dev int64
	for p := first; p <= last; p++ {
		if p != a.lastPage {
			dev += PageSize
		}
		a.lastPage = p
	}
	return dev
}

// ReadAtClass charges an n-byte read of class c at off, exactly as
// File.ReadAtClass would for a successful full read.
func (a *Accountant) ReadAtClass(n, off int64, c Class) { a.Charge(n, off, c) }

// WriteAtClass charges an n-byte write of class c at off, exactly as
// File.WriteAtClass would for a successful full write.
func (a *Accountant) WriteAtClass(n, off int64, c Class) { a.Charge(n, off, c) }

// Charge records one n-byte access of class c at off.
func (a *Accountant) Charge(n, off int64, c Class) {
	a.mu.Lock()
	dev := a.devCharge(off, n, c)
	ct := a.ct
	a.mu.Unlock()
	a.add(ct, c, n, dev)
}

// ChargeRun records count back-to-back recSize-byte accesses, the first
// at off, leaving counter and last-touched page exactly where count
// successive Charge calls would, in one update. Page visits of such a run
// never go back, so a random-class run pays each page it touches once,
// except a first page that is still the last one touched.
func (a *Accountant) ChargeRun(recSize int64, count int, off int64, c Class) {
	if count <= 0 {
		return
	}
	n := recSize * int64(count)
	a.mu.Lock()
	dev := n
	if n > 0 {
		first, last := off/PageSize, (off+n-1)/PageSize
		if c != SeqRead && c != SeqWrite {
			dev = (last - first + 1) * PageSize
			if first == a.lastPage {
				dev -= PageSize
			}
		}
		a.lastPage = last
	}
	ct := a.ct
	a.mu.Unlock()
	ct.addOps(c, n, dev, int64(count), a.mirror)
}

// ChargeDev records one access whose device transfer the caller computed
// itself.
func (a *Accountant) ChargeDev(n, off int64, c Class, dev int64) {
	a.mu.Lock()
	if n > 0 {
		a.lastPage = (off + n - 1) / PageSize
	}
	ct := a.ct
	a.mu.Unlock()
	a.add(ct, c, n, dev)
}

// ChargeDevRun is count ChargeDev calls of n bytes in one update: dev
// device bytes in total, the last access at lastOff, and counter and
// last-touched page left exactly where they would.
func (a *Accountant) ChargeDevRun(n int64, count int, lastOff int64, c Class, dev int64) {
	if count <= 0 {
		return
	}
	a.mu.Lock()
	if n > 0 {
		a.lastPage = (lastOff + n - 1) / PageSize
	}
	ct := a.ct
	a.mu.Unlock()
	ct.addOps(c, n*int64(count), dev, int64(count), a.mirror)
}

// Sync charges the zero-byte sequential-write op File.Sync records.
func (a *Accountant) Sync() {
	a.mu.Lock()
	ct := a.ct
	a.mu.Unlock()
	a.add(ct, SeqWrite, 0, 0)
}
