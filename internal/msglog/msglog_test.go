package msglog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
)

func openTest(t *testing.T) (*Log, *diskio.Counter) {
	t.Helper()
	ct := &diskio.Counter{}
	l, err := Open(filepath.Join(t.TempDir(), "msglog"), ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, ct
}

func msgsEqual(a, b []comm.Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPushRoundTrip(t *testing.T) {
	l, ct := openTest(t)
	p1 := []comm.Msg{{Dst: 1, Val: 0.5}, {Dst: 9, Val: -3}}
	p2 := []comm.Msg{{Dst: 4, Val: 7}}
	other := []comm.Msg{{Dst: 2, Val: 1}}
	if err := l.AppendPush(3, 1, p1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 2, other); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 1, p2); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, err := l.PushTo(3, 1, rct)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]comm.Msg(nil), p1...), p2...)
	if !msgsEqual(got, want) {
		t.Fatalf("PushTo = %v, want %v", got, want)
	}
	if rct.Snapshot().Total() == 0 {
		t.Fatal("read bytes were not charged to the read counter")
	}
	if ct.Snapshot().Bytes[diskio.SeqWrite] == 0 {
		t.Fatal("append bytes were not charged as sequential writes")
	}
	// Other destination, other step: isolated.
	if got, err := l.PushTo(3, 0, rct); err != nil || len(got) != 0 {
		t.Fatalf("PushTo(3,0) = %v, %v, want empty", got, err)
	}
	if got, err := l.PushTo(4, 1, rct); err != nil || len(got) != 0 {
		t.Fatalf("PushTo(4,1) = %v, %v, want empty (missing segment)", got, err)
	}
}

func TestPullRespFirstRecordWins(t *testing.T) {
	l, _ := openTest(t)
	resp := []comm.Msg{{Dst: 11, Val: 2.5}, {Dst: 12, Val: 4}}
	// A duplicated RPC delivery logs the identical response twice; the
	// reader must take the first copy only.
	if err := l.AppendPullResp(5, 7, resp); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPullResp(5, 7, resp); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, ok, err := l.PullResp(5, 7, rct)
	if err != nil || !ok {
		t.Fatalf("PullResp = ok %v, err %v", ok, err)
	}
	if !msgsEqual(got, resp) {
		t.Fatalf("PullResp = %v, want %v", got, resp)
	}
	if _, ok, err := l.PullResp(5, 8, rct); err != nil || ok {
		t.Fatalf("PullResp(5,8) ok=%v err=%v, want absent", ok, err)
	}
}

func TestSegmentReopenAfterStepChange(t *testing.T) {
	l, _ := openTest(t)
	if err := l.AppendPush(2, 0, []comm.Msg{{Dst: 1, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 0, []comm.Msg{{Dst: 2, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	// A rejoining worker appends to an earlier step's segment again.
	if err := l.AppendPush(2, 0, []comm.Msg{{Dst: 3, Val: 3}}); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, err := l.PushTo(2, 0, rct)
	if err != nil {
		t.Fatal(err)
	}
	want := []comm.Msg{{Dst: 1, Val: 1}, {Dst: 3, Val: 3}}
	if !msgsEqual(got, want) {
		t.Fatalf("PushTo after reopen = %v, want %v", got, want)
	}
}

// TestSizeQueriesReadNothing: under a codec the log still answers how big
// its retained segments are, and where a reopened segment ends, from
// memory. Neither SegmentBytes nor a rejoin's reopen reads a segment: the
// counter and its physical twin see no read at all.
func TestSizeQueriesReadNothing(t *testing.T) {
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	ct, phys := &diskio.Counter{}, &diskio.Counter{}
	ct.SetPhys(phys)
	l, err := Open(filepath.Join(t.TempDir(), "msglog"), ct, lz)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for step := 1; step <= 3; step++ {
		for dst := 0; dst < 2; dst++ {
			if err := l.AppendPush(step, dst, []comm.Msg{{Dst: 4, Val: float64(step)}, {Dst: 5, Val: 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	noReads := func(when string) {
		t.Helper()
		for _, c := range []*diskio.Counter{ct, phys} {
			if c.Ops(diskio.SeqRead) != 0 || c.Ops(diskio.RandRead) != 0 {
				t.Fatalf("%s read the log: %+v", when, c.Snapshot())
			}
		}
	}
	before, pbefore := ct.Snapshot(), phys.Snapshot()
	if got := l.SegmentBytes(); got != l.BytesLogged() {
		t.Fatalf("SegmentBytes = %d, want the %d bytes logged", got, l.BytesLogged())
	}
	if ct.Snapshot() != before || phys.Snapshot() != pbefore {
		t.Fatalf("SegmentBytes charged I/O: %+v, physical %+v", ct.Snapshot().Sub(before), phys.Snapshot().Sub(pbefore))
	}
	// A stalled worker rejoins superstep 2 and appends to its segment again.
	if err := l.AppendPush(2, 0, []comm.Msg{{Dst: 6, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	noReads("the reopen")
	if got := l.SegmentBytes(); got != l.BytesLogged() {
		t.Fatalf("SegmentBytes after the reopen = %d, want %d", got, l.BytesLogged())
	}
	got, err := l.PushTo(2, 0, &diskio.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []comm.Msg{{Dst: 4, Val: 2}, {Dst: 5, Val: 1}, {Dst: 6, Val: 7}}; !msgsEqual(got, want) {
		t.Fatalf("PushTo after the reopen = %v, want %v", got, want)
	}
	if _, err := l.Prune(2); err != nil {
		t.Fatal(err)
	}
	// Only superstep 3's two records are left.
	want := int64(2 * len(encodeRecord(3, KindPush, 0, []comm.Msg{{Dst: 4, Val: 3}, {Dst: 5, Val: 1}})))
	if got := l.SegmentBytes(); got != want {
		t.Fatalf("SegmentBytes after Prune(2) = %d, want %d", got, want)
	}
	noReads("SegmentBytes")
}

func TestCorruptionDetected(t *testing.T) {
	l, _ := openTest(t)
	if err := l.AppendPush(2, 1, []comm.Msg{{Dst: 5, Val: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := l.SegmentPath(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderSize] ^= 0xff // flip a payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PushTo(2, 1, &diskio.Counter{}); err == nil {
		t.Fatal("corrupted record passed CRC verification")
	}
}

func TestPrune(t *testing.T) {
	l, _ := openTest(t)
	for step := 1; step <= 6; step++ {
		if err := l.AppendPush(step, 0, []comm.Msg{{Dst: 1, Val: float64(step)}}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.Prune(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("Prune removed %d segments, want 4", removed)
	}
	for step := 1; step <= 4; step++ {
		if _, err := os.Stat(l.SegmentPath(step)); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived pruning", step)
		}
	}
	rct := &diskio.Counter{}
	for step := 5; step <= 6; step++ {
		got, err := l.PushTo(step, 0, rct)
		if err != nil || len(got) != 1 {
			t.Fatalf("segment %d unreadable after prune: %v, %v", step, got, err)
		}
	}
	// The log keeps appending after a prune closed its open segment.
	if err := l.AppendPush(7, 0, []comm.Msg{{Dst: 2, Val: 7}}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := openTest(t)
	var wg sync.WaitGroup
	const per = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.AppendPullResp(3, g, []comm.Msg{{Dst: 1, Val: float64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Records() != 4*per {
		t.Fatalf("Records = %d, want %d", l.Records(), 4*per)
	}
	// Every record must still parse (no interleaved torn writes).
	rct := &diskio.Counter{}
	for g := 0; g < 4; g++ {
		if _, ok, err := l.PullResp(3, g, rct); err != nil || !ok {
			t.Fatalf("block %d: ok=%v err=%v", g, ok, err)
		}
	}
}
