package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/vertexfile"
)

func testSnapshot() *Snapshot {
	s := &Snapshot{Step: 6, Worker: 2}
	for i := 0; i < 100; i++ {
		s.Records = append(s.Records, vertexfile.Record{
			ID: graph.VertexID(200 + i), OutDeg: uint32(i % 7), Val: float64(i) * 1.5,
			Bcast: [2]float64{float64(i), -float64(i)},
		})
	}
	s.Respond = [2][]uint64{{0xdeadbeef, 1}, {0, 0xffff}}
	s.Active = [2][]uint64{{7}, {9}}
	s.BlockRes = [2][]bool{{true, false, true}, {false, false, false}}
	s.Pending = [2]comm.Records{nil, comm.AppendRecords(nil, []comm.Msg{{Dst: 205, Val: 3.25}, {Dst: 299, Val: -1}})}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ct := &diskio.Counter{}
	path := filepath.Join(dir, "snap.dat")
	s := testSnapshot()
	n, err := WriteSnapshot(path, ct, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("zero bytes written")
	}
	if got := ct.Bytes(diskio.SeqWrite); got != n {
		t.Fatalf("seq-write bytes = %d, want %d (checkpoints must hit the cost model)", got, n)
	}
	got, err := ReadSnapshot(path, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 6 || got.Worker != 2 || len(got.Records) != len(s.Records) {
		t.Fatalf("header = %+v", got)
	}
	for i, r := range s.Records {
		if got.Records[i] != r {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], r)
		}
	}
	for p := 0; p < 2; p++ {
		for i, w := range s.Respond[p] {
			if got.Respond[p][i] != w {
				t.Fatalf("respond[%d][%d] = %x", p, i, got.Respond[p][i])
			}
		}
		for i, b := range s.BlockRes[p] {
			if got.BlockRes[p][i] != b {
				t.Fatalf("blockRes[%d][%d] = %v", p, i, got.BlockRes[p][i])
			}
		}
		if !bytes.Equal(got.Pending[p], s.Pending[p]) {
			t.Fatalf("pending[%d] = %x, want %x", p, got.Pending[p], s.Pending[p])
		}
	}
	if ct.Bytes(diskio.SeqRead) != n {
		t.Fatalf("seq-read bytes = %d, want %d", ct.Bytes(diskio.SeqRead), n)
	}
}

func TestMasterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "master.dat")
	ct := &diskio.Counter{}
	m := &Master{Step: 8, Modes: []string{"b-pull", "push", "b-pull"},
		LastSwitch: -10, Rco: 0.4, PrevAgg: 1.25}
	if _, err := WriteMaster(path, ct, m, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMaster(path, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 8 || got.LastSwitch != -10 || got.Rco != 0.4 || got.PrevAgg != 1.25 {
		t.Fatalf("master = %+v", got)
	}
	for i, mode := range m.Modes {
		if got.Modes[i] != mode {
			t.Fatalf("modes[%d] = %q", i, got.Modes[i])
		}
	}
}

// TestRestoreSurvivesRetiredMasterField: master records once carried a
// Q^t sign history between the mode schedule and LastSwitch. The slot
// stays, always empty, so a checkpoint written before it was retired still
// resumes. The fixture was written by that older WriteMaster with signs
// {true, false, true, true} and an ownership trailer.
func TestRestoreSurvivesRetiredMasterField(t *testing.T) {
	got, err := ReadMaster(filepath.Join("testdata", "master_sign_history.dat"), &diskio.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	want := &Master{Step: 6, Modes: []string{"b-pull", "b-pull", "push", "push", "b-pull"},
		LastSwitch: 4, Rco: 0.375, PrevAgg: -2.5,
		Epoch: 2, Dead: []bool{false, true, false}, Hosts: []int{0, 2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("master = %+v, want %+v", got, want)
	}
}

// TestSnapshotPendingBytesPinned: a snapshot's pending runs are a count
// followed by 12-byte records, whatever type holds them in memory. The
// fixture was written by a WriteSnapshot that encoded its pending
// messages one field at a time, with pending records in both parities,
// NaN payloads, negative zeros and 2^31 ids; it must decode to those bits
// and be written back byte for byte.
func TestSnapshotPendingBytesPinned(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_pending.dat")
	got, err := ReadSnapshot(path, &diskio.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.Float64frombits(0x7ff8dead0000beef)
	negZero := math.Copysign(0, -1)
	want := [2][]comm.Msg{
		{{Dst: 1 << 31, Val: nan}, {Dst: 40, Val: negZero}},
		{{Dst: 41, Val: 1.5}, {Dst: 1 << 31, Val: negZero}, {Dst: 40, Val: math.NaN()}, {Dst: 41, Val: -7}},
	}
	for p := range want {
		msgs := comm.DecodeRecords(nil, got.Pending[p])
		if len(msgs) != len(want[p]) {
			t.Fatalf("pending[%d] holds %d messages, want %d", p, len(msgs), len(want[p]))
		}
		for i, m := range want[p] {
			if msgs[i].Dst != m.Dst || math.Float64bits(msgs[i].Val) != math.Float64bits(m.Val) {
				t.Fatalf("pending[%d][%d] = %v (bits %x), want %v (bits %x)", p, i, msgs[i], math.Float64bits(msgs[i].Val), m, math.Float64bits(m.Val))
			}
		}
	}
	if got.Step != 11 || got.Worker != 1 || len(got.Records) != 2 {
		t.Fatalf("header = step %d worker %d, %d records", got.Step, got.Worker, len(got.Records))
	}
	out := filepath.Join(t.TempDir(), "snap.dat")
	if _, err := WriteSnapshot(out, &diskio.Counter{}, got, nil); err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, fixture) {
		t.Fatalf("rewritten snapshot differs from the fixture:\n %x\nwant\n %x", again, fixture)
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.dat")
	ct := &diskio.Counter{}
	if _, err := WriteSnapshot(path, ct, testSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, ct); err == nil {
		t.Fatal("flipped byte not detected by CRC")
	}
	// Truncation is also rejected.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, ct); err == nil {
		t.Fatal("truncated file not rejected")
	}
}

func TestCommitProtocol(t *testing.T) {
	dir := t.TempDir()
	c := Coordinator{Dir: dir}
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("empty dir reported a committed checkpoint")
	}
	ct := &diskio.Counter{}
	// Snapshots written but not committed are invisible.
	if _, err := WriteSnapshot(c.SnapshotPath(4, 0), ct, testSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("uncommitted checkpoint visible")
	}
	if err := c.Commit(4, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	if s, ok := c.LastCommitted(); !ok || s != 4 {
		t.Fatalf("LastCommitted = %d, %v; want 4", s, ok)
	}
	if err := c.Commit(8, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	if s, _ := c.LastCommitted(); s != 8 {
		t.Fatalf("LastCommitted = %d, want 8", s)
	}
	c.Remove(8, 1)
	if s, ok := c.LastCommitted(); !ok || s != 4 {
		t.Fatalf("after Remove(8): %d, %v; want 4", s, ok)
	}
}

func TestRemoveReportsErrors(t *testing.T) {
	c := Coordinator{Dir: t.TempDir()}
	ct := &diskio.Counter{}
	if _, err := WriteMaster(c.MasterPath(3), ct, &Master{Step: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(3, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory squatting on a snapshot path makes os.Remove
	// fail, standing in for any filesystem-level prune failure.
	snap := c.SnapshotPath(3, 0)
	if err := os.MkdirAll(filepath.Join(snap, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(3, 1); err == nil {
		t.Fatal("Remove swallowed a deletion failure")
	}
	// The marker went first regardless, so the stale checkpoint can no
	// longer shadow a newer one.
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("commit marker survived a failed Remove")
	}
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(3, 1); err != nil {
		t.Fatalf("Remove of missing files must be clean, got %v", err)
	}
}
