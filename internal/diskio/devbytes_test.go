package diskio

import (
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
