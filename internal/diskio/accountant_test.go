package diskio

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// File charges through the same Accountant a bare one is, so a random
// operation sequence must leave identical tallies behind a real file and
// behind none — and File's mirror mode must copy every charge to the
// physical twin while the bare Accountant leaves its twin alone.
func TestFileAndAccountantChargeIdentically(t *testing.T) {
	const size = 1 << 20
	var fileCt, filePhys, bareCt, barePhys Counter
	fileCt.SetPhys(&filePhys)
	bareCt.SetPhys(&barePhys)
	f, err := Create(filepath.Join(t.TempDir(), "x"), &fileCt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := NewAccountant(&bareCt)

	buf := make([]byte, size)
	if _, err := f.WriteAtClass(buf, 0, SeqWrite); err != nil {
		t.Fatal(err)
	}
	a.WriteAtClass(size, 0, SeqWrite)

	rng := rand.New(rand.NewSource(42))
	classes := [...]Class{RandRead, RandWrite, SeqRead, SeqWrite}
	for i := 0; i < 5000; i++ {
		n := int64(rng.Intn(3*PageSize) + 1)
		off := rng.Int63n(size - n)
		if rng.Intn(4) == 0 {
			off = off / PageSize * PageSize
		}
		switch op := rng.Intn(10); {
		case op < 3:
			c := classes[rng.Intn(2)*2] // a read class
			if got, err := f.ReadAtClass(buf[:n], off, c); err != nil || int64(got) != n {
				t.Fatalf("read %d@%d: %d, %v", n, off, got, err)
			}
			a.ReadAtClass(n, off, c)
		case op < 6:
			c := classes[rng.Intn(2)*2+1] // a write class
			if _, err := f.WriteAtClass(buf[:n], off, c); err != nil {
				t.Fatal(err)
			}
			a.WriteAtClass(n, off, c)
		case op < 8:
			c := classes[rng.Intn(len(classes))]
			f.Charge(n, off, c)
			a.Charge(n, off, c)
		case op < 9:
			dev := int64(rng.Intn(2)) * PageSize
			f.ChargeDev(8, off, RandRead, dev)
			a.ChargeDev(8, off, RandRead, dev)
		default:
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			a.Sync()
		}
		if fileCt.Snapshot() != bareCt.Snapshot() {
			t.Fatalf("op %d: File charged %+v, Accountant %+v", i, fileCt.Snapshot(), bareCt.Snapshot())
		}
	}
	if filePhys.Snapshot() != fileCt.Snapshot() {
		t.Errorf("File's physical twin %+v differs from its logical charges %+v", filePhys.Snapshot(), fileCt.Snapshot())
	}
	if barePhys.Snapshot() != (Snapshot{}) {
		t.Errorf("bare Accountant leaked %+v into the physical twin", barePhys.Snapshot())
	}
}
