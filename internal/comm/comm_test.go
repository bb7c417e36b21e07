package comm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hybridgraph/internal/graph"
)

// recorder is a Handler that records everything it receives.
type recorder struct {
	mu      sync.Mutex
	packets []*Packet
	pulls   []int
	gathers [][]graph.VertexID
	signals [][]graph.VertexID
	pullOut []Msg
}

func (r *recorder) DeliverMessages(p *Packet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The packet and its messages are the sender's: keep a copy.
	cp := *p
	cp.Msgs = append([]Msg(nil), p.Msgs...)
	r.packets = append(r.packets, &cp)
	return nil
}

func (r *recorder) RespondPull(block, step int) ([]Msg, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pulls = append(r.pulls, block)
	return r.pullOut, ConcatSize(r.pullOut), nil
}

func (r *recorder) GatherValues(ids []graph.VertexID, step int) ([]GatherResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gathers = append(r.gathers, ids)
	out := make([]GatherResult, 0, len(ids))
	for _, id := range ids {
		out = append(out, GatherResult{Dst: id, Vals: []float64{1}})
	}
	return out, nil
}

func (r *recorder) DeliverSignals(ids []graph.VertexID, step int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.signals = append(r.signals, ids)
	return nil
}

func TestConcatSize(t *testing.T) {
	msgs := []Msg{{Dst: 1, Val: 1}, {Dst: 1, Val: 2}, {Dst: 2, Val: 3}}
	// Two distinct ids (4B each) + three values (8B each).
	if got := ConcatSize(msgs); got != 2*4+3*8 {
		t.Fatalf("ConcatSize = %d, want 32", got)
	}
	if got := ConcatSize(nil); got != 0 {
		t.Fatalf("ConcatSize(nil) = %d", got)
	}
}

func TestConcatSizeNeverExceedsRawProperty(t *testing.T) {
	f := func(dsts []uint8) bool {
		msgs := make([]Msg, len(dsts))
		for i, d := range dsts {
			msgs[i] = Msg{Dst: graph.VertexID(d % 16), Val: float64(i)}
		}
		var tmp []Msg
		msgs = StableSortByDst(msgs, &tmp)
		c := ConcatSize(msgs)
		raw := int64(len(msgs)) * MsgWireSize
		return c <= raw && (len(msgs) == 0 || c >= int64(len(msgs))*MsgValSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSendAccountsBytes(t *testing.T) {
	fab := NewLocal(3)
	r := &recorder{}
	fab.Register(1, r)
	p := &Packet{From: 0, To: 1, Step: 2, Msgs: []Msg{{Dst: 5, Val: 1}, {Dst: 6, Val: 2}}}
	if err := fab.Send(p); err != nil {
		t.Fatal(err)
	}
	if len(r.packets) != 1 || len(r.packets[0].Msgs) != 2 {
		t.Fatalf("packets = %v", r.packets)
	}
	in, _ := fab.Traffic(1)
	if in != 2*MsgWireSize {
		t.Fatalf("in bytes = %d, want %d", in, 2*MsgWireSize)
	}
	_, out := fab.Traffic(0)
	if out != 2*MsgWireSize {
		t.Fatalf("out bytes = %d, want %d", out, 2*MsgWireSize)
	}
	if fab.TotalBytes() != 2*MsgWireSize {
		t.Fatalf("total = %d", fab.TotalBytes())
	}
}

func TestLoopbackNotCounted(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(0, r)
	if err := fab.Send(&Packet{From: 0, To: 0, Msgs: []Msg{{Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	if fab.TotalBytes() != 0 {
		t.Fatalf("loopback counted: %d bytes", fab.TotalBytes())
	}
	if len(r.packets) != 1 {
		t.Fatal("loopback packet not delivered")
	}
}

func TestPullRequestRoundTrip(t *testing.T) {
	fab := NewLocal(2)
	resp := &recorder{pullOut: []Msg{{Dst: 3, Val: 1}, {Dst: 3, Val: 2}}}
	fab.Register(1, resp)
	msgs, bytes, err := fab.PullRequest(0, 1, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || resp.pulls[0] != 7 {
		t.Fatalf("msgs %v, pulls %v", msgs, resp.pulls)
	}
	wantResp := ConcatSize(resp.pullOut)
	if bytes != wantResp {
		t.Fatalf("response bytes = %d, want %d", bytes, wantResp)
	}
	if fab.TotalBytes() != PullReqSize+wantResp {
		t.Fatalf("total = %d, want %d", fab.TotalBytes(), PullReqSize+wantResp)
	}
}

func TestGatherRoundTrip(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(1, r)
	ids := []graph.VertexID{1, 2, 3}
	res, err := fab.Gather(0, 1, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	want := int64(len(ids))*GatherIDSize + GatherResultsSize(res)
	if fab.TotalBytes() != want {
		t.Fatalf("total = %d, want %d", fab.TotalBytes(), want)
	}
}

func TestSignalDelivery(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(1, r)
	if err := fab.Signal(0, 1, []graph.VertexID{9, 10}, 3); err != nil {
		t.Fatal(err)
	}
	if len(r.signals) != 1 || len(r.signals[0]) != 2 {
		t.Fatalf("signals = %v", r.signals)
	}
	if fab.TotalBytes() != 2*GatherIDSize {
		t.Fatalf("total = %d", fab.TotalBytes())
	}
}

func TestUnregisteredWorkerErrors(t *testing.T) {
	fab := NewLocal(2)
	if err := fab.Send(&Packet{From: 0, To: 1}); err == nil {
		t.Fatal("Send to unregistered worker should fail")
	}
	if _, _, err := fab.PullRequest(0, 1, 0, 1); err == nil {
		t.Fatal("PullRequest to unregistered worker should fail")
	}
	if _, err := fab.Gather(0, 1, nil, 1); err == nil {
		t.Fatal("Gather to unregistered worker should fail")
	}
	if err := fab.Signal(0, 1, nil, 1); err == nil {
		t.Fatal("Signal to unregistered worker should fail")
	}
}

func TestOutboxFlushesAtThreshold(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(1, r)
	// Threshold of 3 messages.
	ob := NewOutbox(fab, 2, 0, 1, 3*MsgWireSize)
	for i := 0; i < 7; i++ {
		if err := ob.Add(1, Msg{Dst: graph.VertexID(i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.packets) != 2 {
		t.Fatalf("auto-flushed %d packets, want 2", len(r.packets))
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(r.packets) != 3 || ob.Sent() != 7 || ob.Flushes() != 3 {
		t.Fatalf("packets=%d sent=%d flushes=%d", len(r.packets), ob.Sent(), ob.Flushes())
	}
	total := 0
	for _, p := range r.packets {
		total += len(p.Msgs)
	}
	if total != 7 {
		t.Fatalf("delivered %d messages, want 7", total)
	}
}

func TestOutboxDefaultThreshold(t *testing.T) {
	ob := NewOutbox(NewLocal(1), 1, 0, 1, 0)
	if ob.threshold != 4<<20 {
		t.Fatalf("default threshold = %d, want 4MB", ob.threshold)
	}
}

func TestPacketBytes(t *testing.T) {
	p := &Packet{Msgs: make([]Msg, 5)}
	if p.Bytes() != 5*MsgWireSize {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
	p.WireBytes = 17
	if p.Bytes() != 17 {
		t.Fatalf("explicit WireBytes ignored: %d", p.Bytes())
	}
}

func TestGatherResultsSizeSkipsEmpty(t *testing.T) {
	res := []GatherResult{
		{Dst: 1, Vals: []float64{1, 2}},
		{Dst: 2, Vals: nil},
	}
	if got := GatherResultsSize(res); got != 4+16 {
		t.Fatalf("GatherResultsSize = %d, want 20", got)
	}
}

func TestCombineSorted(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }
	msgs := []Msg{{Dst: 1, Val: 1}, {Dst: 1, Val: 2}, {Dst: 2, Val: 3}, {Dst: 2, Val: 4}, {Dst: 5, Val: 5}}
	out := CombineSorted(msgs, sum)
	if len(out) != 3 || out[0].Val != 3 || out[1].Val != 7 || out[2].Val != 5 {
		t.Fatalf("CombineSorted = %v", out)
	}
	if got := CombineSorted(nil, sum); len(got) != 0 {
		t.Fatal("empty input should stay empty")
	}
}

func TestOutboxSenderCombine(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(1, r)
	ob := NewOutbox(fab, 2, 0, 1, 1<<20)
	ob.SetCombine(func(a, b float64) float64 { return a + b })
	for i := 0; i < 10; i++ {
		if err := ob.Add(1, Msg{Dst: 3, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(r.packets) != 1 || len(r.packets[0].Msgs) != 1 {
		t.Fatalf("packets = %v", r.packets)
	}
	if r.packets[0].Msgs[0].Val != 10 {
		t.Fatalf("combined value = %g, want 10", r.packets[0].Msgs[0].Val)
	}
	// 10 messages of 12B collapse to one 12B message: 108 bytes saved.
	if ob.SavedBytes() != 9*MsgWireSize {
		t.Fatalf("SavedBytes = %d, want %d", ob.SavedBytes(), 9*MsgWireSize)
	}
	if ob.CombinedTouches() != 10 {
		t.Fatalf("CombinedTouches = %d, want 10", ob.CombinedTouches())
	}
	if fab.TotalBytes() != MsgWireSize {
		t.Fatalf("wire bytes = %d, want %d", fab.TotalBytes(), MsgWireSize)
	}

	// The combiner folds each destination's messages left to right in Add
	// order. a*2 + b over values 0 and 1 is exact in float64 and yields a
	// different sum for every order of the operands, so it pins that fold.
	fab = NewLocal(2)
	r = &recorder{}
	fab.Register(1, r)
	ob = NewOutbox(fab, 2, 0, 1, 1<<20)
	ob.SetCombine(func(a, b float64) float64 { return a*2 + b })
	rng := rand.New(rand.NewSource(3))
	want := map[graph.VertexID]float64{}
	seen := map[graph.VertexID]bool{}
	for i := 0; i < 60; i++ {
		m := Msg{Dst: graph.VertexID(10 + rng.Intn(3)), Val: float64(rng.Intn(2))}
		if seen[m.Dst] {
			want[m.Dst] = want[m.Dst]*2 + m.Val
		} else {
			want[m.Dst], seen[m.Dst] = m.Val, true
		}
		if err := ob.Add(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(r.packets) != 1 || len(r.packets[0].Msgs) != len(want) {
		t.Fatalf("packets = %v, want one packet of %d messages", r.packets, len(want))
	}
	for _, m := range r.packets[0].Msgs {
		if m.Val != want[m.Dst] {
			t.Errorf("dst %d folded to %g, want the Add-order fold %g", m.Dst, m.Val, want[m.Dst])
		}
	}
}
