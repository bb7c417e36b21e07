// Storage-fault injection. A FaultFS sits underneath File and injects
// the failure modes disk-resident recovery state must survive: ENOSPC,
// short (torn) writes, failed fsync, bit-flip read corruption, and a
// simulated power cut that discards every byte written since the last
// successful fsync. The model is write-through with an undo log: data
// reaches the real file immediately (so fault-free runs are unchanged),
// but each unsynced write records the bytes it overwrote, and a power
// cut rolls them back and truncates the file to its last synced size.
// Metadata operations (create, rename, remove) are modelled as
// journaled and therefore durable; file *data* is durable only after
// Sync — the strictest model, and exactly the one that exposes a commit
// marker written before its snapshots were fsynced.
//
// Injectors are registered per directory tree (Install/Uninstall), so
// existing call sites are untouched: Create/Open consult the registry
// and route through the injector when their path falls under an
// installed root. All decisions draw from a seeded PRNG, so a serial
// operation sequence replays identically; under concurrent workers the
// schedule is pseudorandom but still fixed by the seed.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// ErrDiskFault is the sentinel every *injected* fault matches via
// errors.Is. Real I/O errors wrapped for annotation (KindIO) do not.
var ErrDiskFault = errors.New("injected disk fault")

// Kind classifies a fault-layer error.
type Kind string

const (
	KindENOSPC    Kind = "enospc"     // write refused: no space on device
	KindTornWrite Kind = "torn-write" // only a prefix of the write reached disk
	KindSyncFail  Kind = "sync-fail"  // fsync failed; data remains volatile
	KindBitFlip   Kind = "bit-flip"   // a read returned silently corrupted bytes
	KindPowerCut  Kind = "power-cut"  // the simulated machine lost power
	KindIO        Kind = "io"         // a real error, wrapped for path/class context
)

// Error is the typed, path-and-class-annotated error every durability
// subsystem surfaces on a storage failure: which operation, on which
// file, in which access class, failed and how.
type Error struct {
	Op    string // "create", "open", "read", "write", "sync", "close", "rename"
	Path  string
	Class string // access-class annotation ("rand-write", …); empty when not applicable
	Kind  Kind
	Err   error // underlying cause (syscall.ENOSPC, io.ErrShortWrite, real os error, …)
}

// Error implements the error interface.
func (e *Error) Error() string {
	s := fmt.Sprintf("diskio: %s %s", e.Op, e.Path)
	if e.Class != "" {
		s += " [" + e.Class + "]"
	}
	s += ": " + string(e.Kind)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches ErrDiskFault for injected kinds, so callers distinguish
// "the fault layer did this" from annotated real failures.
func (e *Error) Is(target error) bool {
	return target == ErrDiskFault && e.Kind != KindIO
}

// IsPowerCut reports whether err is (or wraps) a simulated power cut —
// the one storage fault no amount of in-process retrying survives.
func IsPowerCut(err error) bool {
	var de *Error
	return errors.As(err, &de) && de.Kind == KindPowerCut
}

// FaultConfig parameterises one FaultFS. Probabilities are per
// intercepted operation; zero disables that fault. PowerCutAfter > 0
// cuts power on the Nth mutating operation (create/write/sync/rename),
// which makes single-threaded torture tests exactly reproducible.
type FaultConfig struct {
	Seed          int64   `json:"seed"`
	WriteENOSPC   float64 `json:"write_enospc,omitempty"`    // P(ENOSPC) per create/write
	TornWrite     float64 `json:"torn_write,omitempty"`      // P(short write) per write
	SyncFail      float64 `json:"sync_fail,omitempty"`       // P(failure) per fsync
	ReadBitFlip   float64 `json:"read_bit_flip,omitempty"`   // P(one flipped bit) per read
	PowerCutAfter int64   `json:"power_cut_after,omitempty"` // cut on the Nth mutating op; 0 = never
	MaxFaults     int     `json:"max_faults,omitempty"`      // cap on probabilistic faults; 0 = unlimited
}

// Enabled reports whether the config injects anything at all.
func (c FaultConfig) Enabled() bool {
	return c.WriteENOSPC > 0 || c.TornWrite > 0 || c.SyncFail > 0 ||
		c.ReadBitFlip > 0 || c.PowerCutAfter > 0
}

// FaultStats summarises what an injector actually did.
type FaultStats struct {
	ENOSPC   int   `json:"enospc"`
	Torn     int   `json:"torn"`
	SyncFail int   `json:"sync_fail"`
	BitFlip  int   `json:"bit_flip"`
	PowerCut bool  `json:"power_cut"`
	Ops      int64 `json:"ops"` // mutating operations intercepted
}

// Total reports the number of injected faults (the power cut counts as
// one).
func (s FaultStats) Total() int {
	n := s.ENOSPC + s.Torn + s.SyncFail + s.BitFlip
	if s.PowerCut {
		n++
	}
	return n
}

type undoRec struct {
	off int64
	old []byte
}

// shadow is the volatile (unsynced) state of one file: the size fsync
// last made durable and the undo records that revert unsynced writes.
type shadow struct {
	syncedSize int64
	undo       []undoRec
}

// FaultFS injects storage faults for every File whose path falls under
// the directory it is installed on. Safe for concurrent use; all
// decisions and undo bookkeeping are serialised on one mutex, which is
// fine because injectors only exist in fault campaigns.
type FaultFS struct {
	// OnFault, when set before Install, observes every injected fault
	// (including silent bit flips, which return no error to the reader).
	// Called without internal locks held; must not re-enter this FaultFS's
	// files.
	OnFault func(*Error)

	cfg   FaultConfig
	mu    sync.Mutex
	rng   *rand.Rand
	ops   int64
	n     int // probabilistic faults injected so far
	cut   bool
	stats FaultStats
	files map[string]*shadow
}

// NewFaultFS builds an injector from cfg, seeding its dice.
func NewFaultFS(cfg FaultConfig) *FaultFS {
	return &FaultFS{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		files: make(map[string]*shadow),
	}
}

// Stats reports what the injector has done so far.
func (fs *FaultFS) Stats() FaultStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	s.Ops = fs.ops
	return s
}

// Cut reports whether the simulated power cut has fired.
func (fs *FaultFS) Cut() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cut
}

// PowerCut cuts power right now: every unsynced byte is reverted, every
// file is truncated to its last synced size, and every subsequent
// operation through this injector fails with KindPowerCut. For
// harnesses that cut at a chosen moment (e.g. "the instant the ingest
// was acknowledged") rather than at the Nth mutating op.
func (fs *FaultFS) PowerCut() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.cut {
		fs.powerCutLocked()
	}
}

// ---- registry -------------------------------------------------------

var (
	regMu     sync.RWMutex
	injectors = map[string]*FaultFS{}
)

// Install routes every File subsequently created or opened under dir
// through fs. Files opened before Install are not intercepted.
func Install(dir string, fs *FaultFS) {
	dir = filepath.Clean(dir)
	regMu.Lock()
	injectors[dir] = fs
	regMu.Unlock()
}

// Uninstall removes the injector for dir (simulating, e.g., the machine
// rebooting after a power cut). Files already routed keep their
// injector until closed.
func Uninstall(dir string) {
	regMu.Lock()
	delete(injectors, filepath.Clean(dir))
	regMu.Unlock()
}

// injectorFor resolves the injector whose root contains path, if any.
// The deepest matching root wins.
func injectorFor(path string) *FaultFS {
	regMu.RLock()
	defer regMu.RUnlock()
	if len(injectors) == 0 {
		return nil
	}
	path = filepath.Clean(path)
	var best string
	var hit *FaultFS
	for dir, fs := range injectors {
		if (path == dir || strings.HasPrefix(path, dir+string(filepath.Separator))) && len(dir) > len(best) {
			best, hit = dir, fs
		}
	}
	return hit
}

// ---- fault rolls ----------------------------------------------------

// roll decides one probabilistic fault under fs.mu, honouring MaxFaults.
func (fs *FaultFS) roll(p float64) bool {
	if p <= 0 || fs.cut {
		return false
	}
	if fs.cfg.MaxFaults > 0 && fs.n >= fs.cfg.MaxFaults {
		return false
	}
	if fs.rng.Float64() >= p {
		return false
	}
	fs.n++
	return true
}

// notify invokes OnFault outside fs.mu.
func (fs *FaultFS) notify(e *Error) *Error {
	if fs.OnFault != nil {
		fs.OnFault(e)
	}
	return e
}

// mutation counts one mutating op and fires the scheduled power cut
// when its turn comes. Callers hold fs.mu; a true return means power
// was just lost and the caller's operation must fail.
func (fs *FaultFS) mutation() bool {
	fs.ops++
	if fs.cfg.PowerCutAfter > 0 && fs.ops >= fs.cfg.PowerCutAfter && !fs.cut {
		fs.powerCutLocked()
		return true
	}
	return false
}

// powerCutLocked reverts every unsynced byte: undo records are applied
// newest-first and each file is truncated to its last synced size.
// Best-effort — a file removed since its last write is simply gone.
func (fs *FaultFS) powerCutLocked() {
	fs.cut = true
	fs.stats.PowerCut = true
	for path, sh := range fs.files {
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			continue
		}
		for i := len(sh.undo) - 1; i >= 0; i-- {
			f.WriteAt(sh.undo[i].old, sh.undo[i].off)
		}
		f.Truncate(sh.syncedSize)
		f.Close()
	}
}

// ---- intercepted operations -----------------------------------------

func (fs *FaultFS) create(path string) error {
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "create", Path: path, Kind: KindPowerCut})
	}
	if fs.mutation() {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "create", Path: path, Kind: KindPowerCut})
	}
	if fs.roll(fs.cfg.WriteENOSPC) {
		fs.stats.ENOSPC++
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "create", Path: path, Kind: KindENOSPC, Err: syscall.ENOSPC})
	}
	// Creation truncates: the journal makes the zero-length file durable,
	// so any previous shadow state is void.
	fs.files[path] = &shadow{}
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) open(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cut {
		return &Error{Op: "open", Path: path, Kind: KindPowerCut}
	}
	// First sight of a pre-existing file: its current content is assumed
	// durable. A shadow from an earlier Create/Open in this run persists
	// across close/reopen — closing does not sync.
	if _, ok := fs.files[path]; !ok {
		fs.files[path] = &shadow{syncedSize: size}
	}
	return nil
}

func (fs *FaultFS) writeAt(path string, f *os.File, p []byte, off int64, class string) (int, error) {
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return 0, fs.notify(&Error{Op: "write", Path: path, Class: class, Kind: KindPowerCut})
	}
	if fs.mutation() {
		fs.mu.Unlock()
		return 0, fs.notify(&Error{Op: "write", Path: path, Class: class, Kind: KindPowerCut})
	}
	if fs.roll(fs.cfg.WriteENOSPC) {
		fs.stats.ENOSPC++
		fs.mu.Unlock()
		return 0, fs.notify(&Error{Op: "write", Path: path, Class: class, Kind: KindENOSPC, Err: syscall.ENOSPC})
	}
	n, torn := len(p), false
	if len(p) > 0 && fs.roll(fs.cfg.TornWrite) {
		fs.stats.Torn++
		torn = true
		n = fs.rng.Intn(len(p)) // strict prefix, possibly empty
	}
	var wn int
	var werr error
	if n > 0 {
		fs.recordUndoLocked(path, f, off, int64(n))
		wn, werr = f.WriteAt(p[:n], off)
	}
	fs.mu.Unlock()
	if torn {
		return wn, fs.notify(&Error{Op: "write", Path: path, Class: class, Kind: KindTornWrite, Err: io.ErrShortWrite})
	}
	if werr != nil {
		return wn, &Error{Op: "write", Path: path, Class: class, Kind: KindIO, Err: werr}
	}
	return wn, nil
}

// recordUndoLocked captures the bytes about to be overwritten so a
// power cut can restore them. Bytes beyond the current size need no
// undo — the final truncate removes them.
func (fs *FaultFS) recordUndoLocked(path string, f *os.File, off, n int64) {
	sh := fs.files[path]
	if sh == nil {
		sh = &shadow{}
		if st, err := f.Stat(); err == nil {
			sh.syncedSize = st.Size()
		}
		fs.files[path] = sh
	}
	old := make([]byte, n)
	rn, _ := f.ReadAt(old, off)
	if rn > 0 {
		sh.undo = append(sh.undo, undoRec{off: off, old: old[:rn]})
	}
}

func (fs *FaultFS) readAt(path string, f *os.File, p []byte, off int64, class string) (int, error) {
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return 0, fs.notify(&Error{Op: "read", Path: path, Class: class, Kind: KindPowerCut})
	}
	flip := len(p) > 0 && fs.roll(fs.cfg.ReadBitFlip)
	var bit int
	if flip {
		fs.stats.BitFlip++
		bit = fs.rng.Intn(len(p) * 8)
	}
	fs.mu.Unlock()
	n, err := f.ReadAt(p, off)
	if fs.Cut() {
		// Power went while the read was in flight: it may have seen a file
		// already truncated, which must not pass for a short one.
		return 0, fs.notify(&Error{Op: "read", Path: path, Class: class, Kind: KindPowerCut})
	}
	if flip && bit/8 < n {
		p[bit/8] ^= 1 << (bit % 8)
		// Silent corruption: the reader gets no error — only CRC framing
		// can catch this. The fault is still observable via OnFault.
		fs.notify(&Error{Op: "read", Path: path, Class: class, Kind: KindBitFlip})
	}
	return n, err
}

func (fs *FaultFS) sync(path string, f *os.File) error {
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "sync", Path: path, Kind: KindPowerCut})
	}
	if fs.mutation() {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "sync", Path: path, Kind: KindPowerCut})
	}
	if fs.roll(fs.cfg.SyncFail) {
		fs.stats.SyncFail++
		fs.mu.Unlock()
		// The data stays volatile: undo records are kept, so a later power
		// cut still discards everything this sync failed to make durable.
		return fs.notify(&Error{Op: "sync", Path: path, Kind: KindSyncFail})
	}
	if err := f.Sync(); err != nil {
		fs.mu.Unlock()
		return &Error{Op: "sync", Path: path, Kind: KindIO, Err: err}
	}
	sh := fs.files[path]
	if sh == nil {
		sh = &shadow{}
		fs.files[path] = sh
	}
	sh.undo = nil
	if st, err := f.Stat(); err == nil {
		sh.syncedSize = st.Size()
	}
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) close(path string, f *os.File) error {
	// Closing never syncs; the shadow persists. Power loss still forbids
	// further progress, but the descriptor is released either way.
	err := f.Close()
	fs.mu.Lock()
	cut := fs.cut
	fs.mu.Unlock()
	if cut {
		return fs.notify(&Error{Op: "close", Path: path, Kind: KindPowerCut})
	}
	if err != nil {
		return &Error{Op: "close", Path: path, Kind: KindIO, Err: err}
	}
	return nil
}

func (fs *FaultFS) rename(oldpath, newpath string) error {
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "rename", Path: oldpath, Kind: KindPowerCut})
	}
	if fs.mutation() {
		fs.mu.Unlock()
		return fs.notify(&Error{Op: "rename", Path: oldpath, Kind: KindPowerCut})
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		fs.mu.Unlock()
		return &Error{Op: "rename", Path: oldpath, Kind: KindIO, Err: err}
	}
	// The rename itself is journaled metadata (durable at once), but the
	// renamed file's *data* keeps its volatility: rekey every shadow under
	// the old path, including whole-directory renames.
	sep := string(filepath.Separator)
	for k, sh := range fs.files {
		switch {
		case k == oldpath:
			delete(fs.files, k)
			fs.files[newpath] = sh
		case strings.HasPrefix(k, oldpath+sep):
			delete(fs.files, k)
			fs.files[newpath+k[len(oldpath):]] = sh
		}
	}
	fs.mu.Unlock()
	return nil
}

// ---- path-level helpers ---------------------------------------------

// Rename renames a file or directory through the fault layer, so a
// shadowed (unsynced) file keeps its volatility across the rename. The
// atomic tmp+rename commit idiom must use this instead of os.Rename or
// the injector loses track of what the renamed bytes owe to fsync.
func Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	fs := injectorFor(oldpath)
	if fs == nil {
		fs = injectorFor(newpath)
	}
	if fs == nil {
		return os.Rename(oldpath, newpath)
	}
	return fs.rename(oldpath, newpath)
}

// SyncFile fsyncs path through the fault layer, charging the op to ct.
func SyncFile(path string, ct *Counter) error {
	f, err := Open(path, ct)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// WriteFileSync atomically replaces path with data: write to a
// temporary sibling, fsync it, rename over path — all through the fault
// layer with class c accounting. This is the only safe shape for commit
// markers and manifests under the durability contract.
func WriteFileSync(path string, data []byte, ct *Counter, c Class) error {
	tmp := path + ".tmp"
	f, err := Create(tmp, ct)
	if err != nil {
		return err
	}
	if _, err := f.WriteAtClass(data, 0, c); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
