package msgstore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

// spillBufSize is what one write of an identity-layout spill carries at
// most: the whole records that fit its staging buffer.
const spillBufSize = codec.SpillBufSize / recSize * recSize

// TestSpillReusesBuffers: a spill's staging, frame and read-back buffers
// last as long as the inbox, so once warm a spill-and-drain cycle under a
// real codec allocates little beyond the Huffman tables DEFLATE builds
// per decoded frame (~16 KiB here, against ~100 KiB when every cycle
// allocated its own buffers).
func TestSpillReusesBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocation, which -race (run with -short) perturbs by dropping pooled coders")
	}
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	var ct diskio.Counter
	b := NewInbox(filepath.Join(t.TempDir(), "spill.dat"), &ct, -1, lz)
	msgs := make([]comm.Msg, 10000)
	for i := range msgs {
		msgs[i] = comm.Msg{Dst: graph.VertexID(i % 997), Val: float64(i)}
	}
	cycle := func() {
		if err := b.AddAll(msgs); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	// The fewest bytes any one warm cycle allocated: a garbage collection
	// that empties the codec's coder pools lands on one cycle at most.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		cycle()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > 32<<10 {
		t.Fatalf("a warm spill cycle allocated %d B, want at most 32 KiB", least)
	}
}

func newInbox(t *testing.T, capacity int) (*Inbox, *diskio.Counter) {
	t.Helper()
	var ct diskio.Counter
	return NewInbox(filepath.Join(t.TempDir(), "spill.dat"), &ct, capacity, nil), &ct
}

// byDst indexes drained groups by destination for assertions.
func byDst(g Groups) map[graph.VertexID][]float64 {
	m := make(map[graph.VertexID][]float64, len(g))
	for _, gr := range g {
		m[gr.Dst] = gr.Vals
	}
	return m
}

func TestInboxInMemory(t *testing.T) {
	b, ct := newInbox(t, 10)
	for i := 0; i < 5; i++ {
		if err := b.Add(comm.Msg{Dst: graph.VertexID(i % 2), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Spilled() != 0 || b.Received() != 5 {
		t.Fatalf("spilled=%d received=%d", b.Spilled(), b.Received())
	}
	drained, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	msgs := byDst(drained)
	if len(msgs[0]) != 3 || len(msgs[1]) != 2 {
		t.Fatalf("msgs = %v", msgs)
	}
	if ct.Total() != 0 {
		t.Fatalf("in-memory inbox did I/O: %d bytes", ct.Total())
	}
}

func TestInboxSpillsOverCapacity(t *testing.T) {
	b, ct := newInbox(t, 3)
	for i := 0; i < 10; i++ {
		if err := b.Add(comm.Msg{Dst: graph.VertexID(i), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Spilled() != 7 {
		t.Fatalf("spilled = %d, want 7", b.Spilled())
	}
	// Spill writes are charged as random writes (poor destination
	// locality), reads back as sequential.
	if got := ct.Bytes(diskio.RandWrite); got != 7*recSize {
		t.Fatalf("RandWrite = %d, want %d", got, 7*recSize)
	}
	drained, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 10 {
		t.Fatalf("drained %d destinations, want 10", len(drained))
	}
	msgs := byDst(drained)
	for i := 0; i < 10; i++ {
		vals := msgs[graph.VertexID(i)]
		if len(vals) != 1 || vals[0] != float64(i) {
			t.Fatalf("dst %d vals = %v", i, vals)
		}
	}
	if got := ct.Bytes(diskio.SeqRead); got != 7*recSize {
		t.Fatalf("SeqRead = %d, want %d", got, 7*recSize)
	}
}

func TestInboxUnlimitedAndAlwaysSpill(t *testing.T) {
	unlimited, _ := newInbox(t, 0)
	for i := 0; i < 100; i++ {
		if err := unlimited.Add(comm.Msg{Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if unlimited.Spilled() != 0 {
		t.Fatal("capacity 0 should never spill")
	}
	always, _ := newInbox(t, -1)
	if err := always.Add(comm.Msg{Dst: 1, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if always.Spilled() != 1 {
		t.Fatal("negative capacity should always spill")
	}
	msgs, err := always.Drain()
	if err != nil || len(msgs) != 1 || msgs[0].Dst != 1 || msgs[0].Vals[0] != 2 {
		t.Fatalf("drain after spill: %v, %v", msgs, err)
	}
}

func TestInboxReusableAcrossSupersteps(t *testing.T) {
	b, _ := newInbox(t, 2)
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if err := b.Add(comm.Msg{Dst: graph.VertexID(i), Val: float64(round)}); err != nil {
				t.Fatal(err)
			}
		}
		msgs, err := b.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 5 {
			t.Fatalf("round %d drained %d", round, len(msgs))
		}
		if b.Received() != 0 || b.Spilled() != 0 || b.MaxMemBytes() != 0 {
			t.Fatal("Drain should reset the inbox")
		}
	}
}

func TestInboxConcurrentAdd(t *testing.T) {
	b, _ := newInbox(t, 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Add(comm.Msg{Dst: graph.VertexID(i), Val: float64(g)})
			}
		}(g)
	}
	wg.Wait()
	if b.Received() != 1600 {
		t.Fatalf("received = %d, want 1600", b.Received())
	}
	msgs, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	total := msgs.Msgs()
	if total != 1600 {
		t.Fatalf("drained %d messages, want 1600", total)
	}
}

func TestOnlineInboxCombinesHot(t *testing.T) {
	cold, ct := newInbox(t, -1)
	hot := map[graph.VertexID]bool{1: true, 2: true}
	o := NewOnlineInbox(cold, hot, func(a, b float64) float64 { return a + b })
	for i := 0; i < 10; i++ {
		if err := o.Add(comm.Msg{Dst: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Add(comm.Msg{Dst: 5, Val: 3}); err != nil { // cold → spill
		t.Fatal(err)
	}
	if o.OnlineCount() != 10 || o.Spilled() != 1 {
		t.Fatalf("online=%d spilled=%d", o.OnlineCount(), o.Spilled())
	}
	if ct.Bytes(diskio.RandWrite) != recSize {
		t.Fatalf("cold spill bytes = %d", ct.Bytes(diskio.RandWrite))
	}
	drained, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	msgs := byDst(drained)
	if len(msgs[1]) != 1 || msgs[1][0] != 10 {
		t.Fatalf("hot vertex combined to %v, want [10]", msgs[1])
	}
	if msgs[5][0] != 3 {
		t.Fatalf("cold vertex = %v", msgs[5])
	}
	if o.OnlineCount() != 0 {
		t.Fatal("Drain should reset online count")
	}
}

func TestOnlineInboxReceivedCountsMessages(t *testing.T) {
	// Regression: Received used to report the number of distinct hot
	// destinations rather than the number of messages received, so any
	// combining made the count collapse (10 messages to one hot vertex
	// counted as 1) while cold deliveries were dropped entirely.
	cold, _ := newInbox(t, -1)
	hot := map[graph.VertexID]bool{1: true, 2: true}
	o := NewOnlineInbox(cold, hot, func(a, b float64) float64 { return a + b })
	for i := 0; i < 10; i++ {
		if err := o.Add(comm.Msg{Dst: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := o.Add(comm.Msg{Dst: 2, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := o.Add(comm.Msg{Dst: 5, Val: 1}); err != nil { // cold → spill
			t.Fatal(err)
		}
	}
	if got := o.Received(); got != 15 {
		t.Fatalf("Received = %d, want 15 (10+3 combined online, 2 cold)", got)
	}
	if _, err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := o.Received(); got != 0 {
		t.Fatalf("Received after Drain = %d, want 0", got)
	}
}

func TestOnlineInboxFoldsColdStragglers(t *testing.T) {
	// A hot vertex's messages may land in the cold inbox before the hot
	// set is consulted elsewhere; Drain must fold them into one value.
	cold, _ := newInbox(t, 0)
	hot := map[graph.VertexID]bool{1: true}
	o := NewOnlineInbox(cold, hot, func(a, b float64) float64 { return a + b })
	cold.Add(comm.Msg{Dst: 1, Val: 5}) // bypasses the online path
	o.Add(comm.Msg{Dst: 1, Val: 2})
	drained, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	msgs := byDst(drained)
	if len(msgs[1]) != 1 || msgs[1][0] != 7 {
		t.Fatalf("folded = %v, want [7]", msgs[1])
	}
}

func TestMaxMemBytesTracksPeak(t *testing.T) {
	b, _ := newInbox(t, 4)
	for i := 0; i < 10; i++ {
		b.Add(comm.Msg{Dst: graph.VertexID(i)})
	}
	if got := b.MaxMemBytes(); got != 4*recSize {
		t.Fatalf("MaxMemBytes = %d, want %d", got, 4*recSize)
	}
}

func TestInboxRoundTripProperty(t *testing.T) {
	f := func(dsts []uint8, capRaw uint8) bool {
		capacity := int(capRaw % 20)
		var ct diskio.Counter
		b := NewInbox(filepath.Join(t.TempDir(), "p.dat"), &ct, capacity, nil)
		want := map[graph.VertexID]int{}
		for i, d := range dsts {
			m := comm.Msg{Dst: graph.VertexID(d % 32), Val: float64(i)}
			if err := b.Add(m); err != nil {
				return false
			}
			want[m.Dst]++
		}
		drained, err := b.Drain()
		if err != nil {
			return false
		}
		if len(drained) != len(want) {
			return false
		}
		got := byDst(drained)
		for dst, n := range want {
			if len(got[dst]) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A hot vertex's value is folded per sender in arrival order, then across
// senders in ascending order, so it does not depend on how the senders'
// packets interleave — with an order-sensitive reducer standing in for a
// float sum's rounding — and a restore of what Pending lists folds to the
// same bits. Memory still counts one slot per hot destination.
func TestOnlineInboxFoldIsSenderMajor(t *testing.T) {
	sub := func(a, b float64) float64 { return a - b }
	hot := map[graph.VertexID]bool{1: true, 2: true}
	streams := map[int][]comm.Msg{
		0: {{Dst: 1, Val: 1}, {Dst: 9, Val: 90}, {Dst: 1, Val: 2}, {Dst: 2, Val: 3}},
		1: {{Dst: 2, Val: 4}, {Dst: 1, Val: 5}, {Dst: 9, Val: 91}, {Dst: 1, Val: 6}},
		3: {{Dst: 1, Val: 7}},
	}
	// dst 1: ((1-2) - (5-6)) - 7; dst 2: 3 - 4; dst 9 is cold and listed.
	want := map[graph.VertexID][]float64{1: {-7}, 2: {-1}, 9: {90, 91}}
	check := func(label string, o *OnlineInbox) {
		t.Helper()
		if got := o.MaxMemBytes(); got != 2*recSize {
			t.Fatalf("%s: MaxMemBytes = %d, want %d (two hot destinations)", label, got, 2*recSize)
		}
		got, err := o.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byDst(got), want) {
			t.Fatalf("%s: drained %v, want %v", label, byDst(got), want)
		}
	}
	o := NewOnlineInbox(NewInbox(filepath.Join(t.TempDir(), "c.dat"), &diskio.Counter{}, -1, nil), hot, sub)
	rng := rand.New(rand.NewSource(3))
	for cycle := 0; cycle < 4; cycle++ {
		left := map[int][]comm.Msg{0: streams[0], 1: streams[1], 3: streams[3]}
		for _, from := range []int{3, 1, 0, 1, 0, 3, 0, 1, 1, 0} { // enough turns for every stream
			k := min(len(left[from]), 1+rng.Intn(2))
			if err := o.AddFrom(from, left[from][:k]); err != nil {
				t.Fatal(err)
			}
			left[from] = left[from][k:]
		}
		if n := len(left[0]) + len(left[1]) + len(left[3]); n != 0 {
			t.Fatalf("cycle %d left %d messages undelivered", cycle, n)
		}
		pending, err := o.Pending()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cycle %d", cycle), o)
		restored := NewOnlineInbox(NewInbox(filepath.Join(t.TempDir(), "r.dat"), &diskio.Counter{}, -1, nil), hot, sub)
		for _, m := range pending {
			if err := restored.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("cycle %d restored", cycle), restored)
	}
}
