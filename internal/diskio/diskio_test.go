package diskio

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestExplicitClassOverride(t *testing.T) {
	var ct Counter
	f, err := Create(filepath.Join(t.TempDir(), "x"), &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	if _, err := f.WriteAtClass(buf, 0, RandWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAtClass(buf, 64, RandWrite); err != nil {
		t.Fatal(err)
	}
	if got := ct.Bytes(RandWrite); got != 128 {
		t.Fatalf("RandWrite = %d, want 128 (explicit class)", got)
	}
	if _, err := f.ReadAtClass(buf, 0, SeqRead); err != nil {
		t.Fatal(err)
	}
	if got := ct.Bytes(SeqRead); got != 64 {
		t.Fatalf("SeqRead = %d, want 64", got)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	var ct Counter
	ct.Add(RandRead, 10)
	a := ct.Snapshot()
	ct.Add(RandRead, 5)
	ct.Add(SeqWrite, 7)
	b := ct.Snapshot()
	d := b.Sub(a)
	if d.Bytes[RandRead] != 5 || d.Bytes[SeqWrite] != 7 {
		t.Fatalf("diff = %v", d)
	}
	s := a.Add(d)
	if s.Bytes[RandRead] != b.Bytes[RandRead] {
		t.Fatalf("add/sub not inverse: %v vs %v", s, b)
	}
	if b.Total() != 22 {
		t.Fatalf("Total = %d, want 22", b.Total())
	}
}

func TestSnapshotAddSubProperty(t *testing.T) {
	f := func(a, b [4]int32) bool {
		var x, y Snapshot
		for i := 0; i < 4; i++ {
			x.Bytes[i] = int64(a[i])
			y.Bytes[i] = int64(b[i])
		}
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSeconds(t *testing.T) {
	var s Snapshot
	s.Dev[RandRead] = 1177 * 1024 // device bytes drive the cost model
	got := HDDLocal.DiskSeconds(s)
	want := float64(s.Dev[RandRead]) / (1.177 * (1 << 20))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("DiskSeconds = %v, want %v", got, want)
	}
	if n := HDDLocal.NetSeconds(112 << 20); math.Abs(n-1.0) > 1e-9 {
		t.Fatalf("NetSeconds(112MB) = %v, want 1.0", n)
	}
}

func TestTable3Profiles(t *testing.T) {
	// Table 3 values, verbatim from the paper.
	if HDDLocal.SRR != 1.177 || HDDLocal.SRW != 1.182 || HDDLocal.SSR != 2.358 || HDDLocal.SNet != 112 {
		t.Fatalf("HDDLocal = %+v, does not match Table 3", HDDLocal)
	}
	if SSDAmazon.SRR != 18.177 || SSDAmazon.SRW != 18.194 || SSDAmazon.SSR != 18.270 || SSDAmazon.SNet != 116 {
		t.Fatalf("SSDAmazon = %+v, does not match Table 3", SSDAmazon)
	}
	// SSDs have near-uniform throughput across access classes; HDDs pay
	// ~2x for random access. These relations drive Fig. 9 and Fig. 14a.
	if !(SSDAmazon.SRR/SSDAmazon.SSR > 0.9) {
		t.Fatal("SSD random/sequential ratio should be near 1")
	}
	if !(HDDLocal.SRR/HDDLocal.SSR < 0.6) {
		t.Fatal("HDD random reads should be much slower than sequential")
	}
}

func TestOpenExisting(t *testing.T) {
	var ct Counter
	path := filepath.Join(t.TempDir(), "x")
	f, err := Create(path, &ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAtClass([]byte("hello"), 0, SeqWrite); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := Open(path, &ct)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sz, err := g.Size()
	if err != nil || sz != 5 {
		t.Fatalf("Size = %d, %v; want 5", sz, err)
	}
	buf := make([]byte, 5)
	if _, err := g.ReadAtClass(buf, 0, SeqRead); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		RandRead: "rand-read", RandWrite: "rand-write",
		SeqRead: "seq-read", SeqWrite: "seq-write",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
