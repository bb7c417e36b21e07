package vertexfile

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

func newStore(t testing.TB, lo graph.VertexID, n int) (*Store, *diskio.Counter) {
	t.Helper()
	var ct diskio.Counter
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			ID:     lo + graph.VertexID(i),
			OutDeg: uint32(i * 2),
			Val:    float64(i) + 0.5,
			Bcast:  [2]float64{float64(i), -float64(i)},
		}
	}
	s, err := Create(filepath.Join(t.TempDir(), "v.dat"), &ct, lo, recs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, &ct
}

func TestCreateAndReadRange(t *testing.T) {
	s, ct := newStore(t, 100, 50)
	recs := make([]Record, 10)
	if err := s.ReadRange(110, 120, recs); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		want := Record{ID: graph.VertexID(110 + i), OutDeg: uint32((10 + i) * 2),
			Val: float64(10+i) + 0.5, Bcast: [2]float64{float64(10 + i), -float64(10 + i)}}
		if r != want {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if got := ct.Bytes(diskio.SeqRead); got != 10*RecordSize {
		t.Fatalf("SeqRead bytes = %d, want %d", got, 10*RecordSize)
	}
	if got := ct.Bytes(diskio.SeqWrite); got != 50*RecordSize {
		t.Fatalf("SeqWrite bytes (create) = %d, want %d", got, 50*RecordSize)
	}
}

func TestWriteRangeRoundTrip(t *testing.T) {
	s, _ := newStore(t, 0, 20)
	recs := make([]Record, 5)
	if err := s.ReadRange(5, 10, recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Val *= 3
		recs[i].Bcast[1] = 42
	}
	if err := s.WriteRange(5, 10, recs); err != nil {
		t.Fatal(err)
	}
	got := make([]Record, 5)
	if err := s.ReadRange(5, 10, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadBcastParityAndAccounting(t *testing.T) {
	s, ct := newStore(t, 10, 8)
	before := ct.Snapshot()
	v0, err := s.ReadBcast(13, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.ReadBcast(13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 3 || v1 != -3 {
		t.Fatalf("bcast = %g,%g; want 3,-3", v0, v1)
	}
	d := ct.Snapshot().Sub(before)
	if d.Bytes[diskio.RandRead] != 2*BcastSize {
		t.Fatalf("RandRead = %d, want %d", d.Bytes[diskio.RandRead], 2*BcastSize)
	}
	// Higher parities reduce mod 2.
	v2, err := s.ReadBcast(13, 2)
	if err != nil || v2 != v0 {
		t.Fatalf("parity 2 read = %g, %v; want %g", v2, err, v0)
	}
}

func TestReadRecordRandom(t *testing.T) {
	s, _ := newStore(t, 0, 10)
	r, err := s.ReadRecord(7)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != 7 || r.OutDeg != 14 {
		t.Fatalf("ReadRecord(7) = %+v", r)
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	s, _ := newStore(t, 100, 10)
	if _, err := s.ReadBcast(99, 0); err == nil {
		t.Fatal("ReadBcast below range should fail")
	}
	if _, err := s.ReadBcast(110, 0); err == nil {
		t.Fatal("ReadBcast above range should fail")
	}
	if _, err := s.ReadRecord(110); err == nil {
		t.Fatal("ReadRecord above range should fail")
	}
	if err := s.ReadRange(100, 111, make([]Record, 11)); err == nil {
		t.Fatal("ReadRange past end should fail")
	}
	if err := s.ReadRange(100, 105, make([]Record, 4)); err == nil {
		t.Fatal("ReadRange with wrong buffer length should fail")
	}
}

func TestCreateRejectsMisnumberedRecords(t *testing.T) {
	var ct diskio.Counter
	_, err := Create(filepath.Join(t.TempDir(), "v"), &ct, 5, []Record{{ID: 9}})
	if err == nil {
		t.Fatal("Create should reject records whose ids do not match positions")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(id, deg uint32, val, b0, b1 float64) bool {
		r := Record{ID: graph.VertexID(id), OutDeg: deg, Val: val, Bcast: [2]float64{b0, b1}}
		var buf [RecordSize]byte
		encode(buf[:], r)
		got := decode(buf[:])
		eq := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return got.ID == r.ID && got.OutDeg == r.OutDeg &&
			eq(got.Val, r.Val) && eq(got.Bcast[0], r.Bcast[0]) && eq(got.Bcast[1], r.Bcast[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	s, _ := newStore(t, 10, 5)
	for v, want := range map[graph.VertexID]bool{9: false, 10: true, 14: true, 15: false} {
		if got := s.Contains(v); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", v, got, want)
		}
	}
}

// A whole-partition range grows a buffer past maxKeptRange; rangeBufs
// does not keep it, so its bytes do not stay live after the job. Chunk-
// sized buffers are kept.
func TestRangeBufsDropWholePartitionBuffers(t *testing.T) {
	const n = 3 * maxKeptRange / RecordSize
	s, _ := newStore(t, 0, n)
	recs := make([]Record, n)
	if err := s.ReadRange(0, n, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRange(0, n, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadRange(0, 4096, recs[:4096]); err != nil {
		t.Fatal(err)
	}
	var held []*[]byte
	kept := 0
	for range 16 {
		bp := rangeBufs.Get()
		if cap(*bp) > maxKeptRange {
			t.Errorf("rangeBufs holds a %d-byte buffer, more than %d", cap(*bp), maxKeptRange)
		}
		if cap(*bp) >= 4096*RecordSize {
			kept++
		}
		held = append(held, bp)
	}
	for _, bp := range held {
		rangeBufs.Put(bp)
	}
	if kept == 0 {
		t.Errorf("rangeBufs kept no %d-byte chunk buffer", 4096*RecordSize)
	}
}
