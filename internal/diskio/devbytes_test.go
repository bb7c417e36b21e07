package diskio

import (
	"math/rand"
	"path/filepath"
	"testing"
)

func TestDevBytesPageGranularRandomAccess(t *testing.T) {
	var ct Counter
	f, err := Create(filepath.Join(t.TempDir(), "x"), &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Lay down two pages of data.
	if _, err := f.WriteAtClass(make([]byte, 2*PageSize), 0, SeqWrite); err != nil {
		t.Fatal(err)
	}
	base := ct.Snapshot()

	buf := make([]byte, 8)
	// First random read: one page of device transfer for 8 logical bytes.
	if _, err := f.ReadAtClass(buf, 100, RandRead); err != nil {
		t.Fatal(err)
	}
	d := ct.Snapshot().Sub(base)
	if d.Bytes[RandRead] != 8 || d.Dev[RandRead] != PageSize {
		t.Fatalf("first read: logical %d dev %d", d.Bytes[RandRead], d.Dev[RandRead])
	}
	// Second read on the same page: no extra device transfer.
	if _, err := f.ReadAtClass(buf, 200, RandRead); err != nil {
		t.Fatal(err)
	}
	d = ct.Snapshot().Sub(base)
	if d.Dev[RandRead] != PageSize {
		t.Fatalf("same-page read recharged: dev %d", d.Dev[RandRead])
	}
	// A different page pays again.
	if _, err := f.ReadAtClass(buf, PageSize+8, RandRead); err != nil {
		t.Fatal(err)
	}
	d = ct.Snapshot().Sub(base)
	if d.Dev[RandRead] != 2*PageSize {
		t.Fatalf("page change: dev %d, want %d", d.Dev[RandRead], 2*PageSize)
	}
}

func TestDevBytesSequentialEqualsLogical(t *testing.T) {
	var ct Counter
	f, err := Create(filepath.Join(t.TempDir(), "x"), &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAtClass(make([]byte, 10000), 0, SeqWrite); err != nil {
		t.Fatal(err)
	}
	s := ct.Snapshot()
	if s.Dev[SeqWrite] != s.Bytes[SeqWrite] || s.Bytes[SeqWrite] != 10000 {
		t.Fatalf("seq: logical %d dev %d", s.Bytes[SeqWrite], s.Dev[SeqWrite])
	}
}

func TestDevBytesExplicitCharge(t *testing.T) {
	var ct Counter
	f, err := Create(filepath.Join(t.TempDir(), "x"), &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAtClass(make([]byte, 100), 0, SeqWrite); err != nil {
		t.Fatal(err)
	}
	f.ChargeDev(8, 0, RandRead, 0)
	if ct.DevBytes(RandRead) != 0 || ct.Bytes(RandRead) != 8 {
		t.Fatalf("explicit zero charge: dev %d logical %d",
			ct.DevBytes(RandRead), ct.Bytes(RandRead))
	}
}

func TestDevBytesAppendsCoalesce(t *testing.T) {
	// Spilled messages append; successive 12-byte random writes on the
	// same page must not each pay a page.
	var ct Counter
	f, err := Create(filepath.Join(t.TempDir(), "x"), &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := make([]byte, 12)
	for i := int64(0); i < 400; i++ { // ~1.2 pages of appends
		if _, err := f.WriteAtClass(rec, i*12, RandWrite); err != nil {
			t.Fatal(err)
		}
	}
	if dev := ct.DevBytes(RandWrite); dev > 3*PageSize {
		t.Fatalf("appends paid %d device bytes, want ≤ %d", dev, 3*PageSize)
	}
	if got := ct.Bytes(RandWrite); got != 4800 {
		t.Fatalf("logical = %d, want 4800", got)
	}
}

func TestSnapshotDevTotal(t *testing.T) {
	var s Snapshot
	s.Dev[RandRead] = 5
	s.Dev[SeqWrite] = 7
	if s.DevTotal() != 12 {
		t.Fatalf("DevTotal = %d", s.DevTotal())
	}
}

// TestChargeRunEqualsRepeatedCharge is ChargeRun's whole contract: after
// any history, one ChargeRun(recSize, count, off, c) leaves the counter
// (ops, bytes, device bytes), its physical twin and the last-touched page
// exactly where count Charge calls over the same tiling leave them — for the mirroring accountant a File holds and
// the bare one a compressed store holds, for records that straddle pages
// and records larger than a page.
func TestChargeRunEqualsRepeatedCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := []int64{0, 1, 12, 20, PageSize - 1, PageSize, PageSize + 1, 3*PageSize + 5}
	for _, mirror := range []bool{true, false} {
		var runCt, runPhys, refCt, refPhys Counter
		runCt.SetPhys(&runPhys)
		refCt.SetPhys(&refPhys)
		run := &Accountant{ct: &runCt, mirror: mirror, lastPage: -1}
		ref := &Accountant{ct: &refCt, mirror: mirror, lastPage: -1}
		off := int64(0)
		for step := 0; step < 4000; step++ {
			recSize := sizes[rng.Intn(len(sizes))]
			count := rng.Intn(40)
			c := Class(rng.Intn(int(numClasses)))
			switch rng.Intn(3) {
			case 0: // continue where the last access ended
			case 1:
				off = rng.Int63n(64 * PageSize)
			case 2: // land exactly on a page boundary
				off = rng.Int63n(64) * PageSize
			}
			run.ChargeRun(recSize, count, off, c)
			for k := 0; k < count; k++ {
				ref.Charge(recSize, off+int64(k)*recSize, c)
			}
			off += recSize * int64(count)
			if runCt.Snapshot() != refCt.Snapshot() || runPhys.Snapshot() != refPhys.Snapshot() ||
				run.lastPage != ref.lastPage {
				t.Fatalf("mirror=%v step %d: ChargeRun(%d, %d, off, %v) left %+v phys %+v lastPage %d;\n%d Charge calls leave %+v phys %+v lastPage %d",
					mirror, step, recSize, count, c, runCt.Snapshot(), runPhys.Snapshot(), run.lastPage,
					count, refCt.Snapshot(), refPhys.Snapshot(), ref.lastPage)
			}
		}
		if mirror == (runPhys.Snapshot() == Snapshot{}) {
			t.Fatalf("mirror=%v but the physical twin holds %+v", mirror, runPhys.Snapshot())
		}
	}
}

// ChargeDevRun is count ChargeDev calls taken at once: scattered offsets,
// a caller-computed device charge per access (a fresh page or a hot one),
// mirror and bare accountant — tallies and last-touched page end up where
// the per-access calls leave them, also
// when other charges run in between.
func TestChargeDevRunEqualsRepeatedChargeDev(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, mirror := range []bool{true, false} {
		var runCt, runPhys, refCt, refPhys Counter
		runCt.SetPhys(&runPhys)
		refCt.SetPhys(&refPhys)
		run := &Accountant{ct: &runCt, mirror: mirror, lastPage: -1}
		ref := &Accountant{ct: &refCt, mirror: mirror, lastPage: -1}
		for step := 0; step < 4000; step++ {
			n := []int64{0, 8, 12, PageSize}[rng.Intn(4)]
			count := rng.Intn(30)
			c := Class(rng.Intn(int(numClasses)))
			var dev, lastOff int64
			for k := 0; k < count; k++ {
				lastOff = rng.Int63n(64 * PageSize)
				if rng.Intn(3) == 0 {
					lastOff = lastOff / PageSize * PageSize
				}
				d := int64(rng.Intn(2)) * PageSize
				ref.ChargeDev(n, lastOff, c, d)
				dev += d
			}
			run.ChargeDevRun(n, count, lastOff, c, dev)
			if rng.Intn(4) == 0 { // an ordinary charge sees the same state on both
				off := rng.Int63n(64 * PageSize)
				run.Charge(100, off, RandRead)
				ref.Charge(100, off, RandRead)
			}
			if runCt.Snapshot() != refCt.Snapshot() || runPhys.Snapshot() != refPhys.Snapshot() ||
				run.lastPage != ref.lastPage {
				t.Fatalf("mirror=%v step %d: ChargeDevRun(%d, %d, %d, %v, %d) left %+v phys %+v lastPage %d;\n%d ChargeDev calls leave %+v phys %+v lastPage %d",
					mirror, step, n, count, lastOff, c, dev, runCt.Snapshot(), runPhys.Snapshot(), run.lastPage,
					count, refCt.Snapshot(), refPhys.Snapshot(), ref.lastPage)
			}
		}
		if mirror == (runPhys.Snapshot() == Snapshot{}) {
			t.Fatalf("mirror=%v but the physical twin holds %+v", mirror, runPhys.Snapshot())
		}
	}
}
