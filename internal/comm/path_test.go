package comm

import (
	"math"
	"testing"

	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// scribbler is a fabric wrapper that overwrites a packet's messages with
// garbage the moment Send returns — what the sender's buffer reuse does a
// little later anyway. Anything downstream that kept p.Msgs instead of
// copying it shows up as corrupted deliveries.
type scribbler struct{ Fabric }

func (s scribbler) Send(p *Packet) error {
	err := s.Fabric.Send(p)
	for i := range p.Msgs {
		p.Msgs[i] = Msg{Dst: math.MaxUint32, Val: math.NaN()}
	}
	return err
}

// An outbox reuses each destination's buffer across flushes and across
// Reset; what the receiver holds after every Send must be the messages as
// they were added, on both fabrics.
func TestOutboxReusesBuffersSafely(t *testing.T) {
	tcp, _ := newTCPPair(t)
	fabrics := map[string]Fabric{"local": NewLocal(2), "tcp": tcp}
	for name, fab := range fabrics {
		t.Run(name, func(t *testing.T) {
			r := &recorder{}
			fab.Register(1, r)
			ob := NewOutbox(scribbler{fab}, 2, 0, 1, 5*MsgWireSize)
			want := 0
			for step := 1; step <= 3; step++ {
				ob.Reset(scribbler{fab}, step)
				for i := 0; i < 23; i++ {
					if err := ob.Add(1, Msg{Dst: graph.VertexID(want), Val: float64(want)}); err != nil {
						t.Fatal(err)
					}
					want++
				}
				if err := ob.Flush(); err != nil {
					t.Fatal(err)
				}
				if ob.Sent() != 23 || ob.Flushes() != 5 {
					t.Fatalf("step %d: sent %d in %d packets, want 23 in 5", step, ob.Sent(), ob.Flushes())
				}
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			got := 0
			for _, p := range r.packets {
				for _, m := range p.Msgs {
					if m.Dst != graph.VertexID(got) || m.Val != float64(got) {
						t.Fatalf("delivery %d arrived as %+v: a buffer was read after its sender reused it", got, m)
					}
					got++
				}
			}
			if got != want {
				t.Fatalf("%d messages delivered, want %d", got, want)
			}
		})
	}
}

// A stage replays into the outbox and keeps its storage; a second round
// through the same stage must not see the first round's entries.
func TestStageReusedAcrossMerges(t *testing.T) {
	fab := NewLocal(2)
	r := &recorder{}
	fab.Register(1, r)
	ob := NewOutbox(fab, 2, 0, 1, 0)
	st := NewStage(ShardThreshold(0, 4))
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			st.Add(1, Msg{Dst: graph.VertexID(i), Val: float64(round)})
		}
		if err := st.MergeInto(ob); err != nil {
			t.Fatal(err)
		}
		if st.Len() != 0 {
			t.Fatalf("round %d: %d entries left staged", round, st.Len())
		}
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	if ob.Sent() != 30 {
		t.Fatalf("sent %d, want 30", ob.Sent())
	}
}

// A stage and an outbox buffer reach their working size in a logarithmic
// number of steps — append's 1.25× growth past 256 elements would take
// about thirty to get to 200 000 — and an outbox buffer never outgrows
// what its threshold lets it hold before a flush.
func TestSendBuffersGrowByDoubling(t *testing.T) {
	const n = 200000
	steps := func(add func(i int), capOf func() int) int {
		grown, last := 0, 0
		for i := 0; i < n; i++ {
			add(i)
			if c := capOf(); c != last {
				grown, last = grown+1, c
			}
		}
		return grown
	}
	st := NewStage(0)
	if got := steps(func(i int) { st.Add(1, Msg{Dst: graph.VertexID(i)}) }, func() int { return cap(st.entries) }); got > 13 {
		t.Errorf("stage reallocated %d times on the way to %d entries", got, n)
	}
	fab := NewLocal(2)
	fab.Register(1, &recorder{})
	big := NewOutbox(fab, 2, 0, 1, 0) // 4 MB: nothing flushes
	if got := steps(func(i int) { big.Add(1, Msg{Dst: graph.VertexID(i)}) }, func() int { return cap(big.pending[1]) }); got > 13 {
		t.Errorf("outbox buffer reallocated %d times on the way to %d messages", got, n)
	}
	small := NewOutbox(fab, 2, 0, 1, 100*MsgWireSize)
	steps(func(i int) {
		if err := small.Add(1, Msg{Dst: graph.VertexID(i)}); err != nil {
			t.Fatal(err)
		}
	}, func() int { return 0 })
	if c := cap(small.pending[1]); c > 128 { // 100 messages, rounded up to a size class
		t.Errorf("a 100-message threshold grew a %d-message buffer", c)
	}
	if small.Flushes() != n/100 {
		t.Errorf("%d flushes, want %d", small.Flushes(), n/100)
	}
}

// The dedup window pins whole pull responses; its byte bound must hold
// over a long run of large pulls, and the retry most likely to arrive —
// of the request that just completed — must still be answered from the
// record rather than re-run.
func TestTCPDedupWindowBoundedByBytes(t *testing.T) {
	fab, r := newTCPPair(t)
	const perPull = 1700 // messages: ~20 KB a response, ~200 MB over the run
	r.mu.Lock()
	r.pullOut = make([]Msg, perPull)
	for i := range r.pullOut {
		r.pullOut[i] = Msg{Dst: graph.VertexID(i), Val: float64(i)}
	}
	r.mu.Unlock()
	// A Send's record pins no bytes: the pulls' byte pressure must leave it
	// alone, or a late retry would deliver the packet twice.
	if err := fab.Send(&Packet{From: 0, To: 1, Step: 2, Msgs: []Msg{{Dst: 1, Val: 1}}}); err != nil {
		t.Fatal(err)
	}
	sendSeq := fab.seq.Load()
	d := fab.dedups[1]
	var peak int64
	pulls := 10000
	if testing.Short() {
		pulls = 4000 // still 80 MB against the 64 MB bound
	}
	for i := 0; i < pulls; i++ {
		msgs, _, err := fab.PullRequest(0, 1, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != perPull || msgs[perPull-1].Val != perPull-1 {
			t.Fatalf("pull %d returned %d messages", i, len(msgs))
		}
		if i == 3600 {
			// The byte bound has been evicting for a few hundred pulls; the
			// count bound (4096) has not been reached.
			d.do(0, sendSeq, func() tcpResponse {
				t.Error("a retry of the Send that preceded the pulls was re-processed")
				return tcpResponse{}
			})
		}
		d.mu.Lock()
		peak = max(peak, d.bytes)
		var sum int64
		if i%1000 == 999 {
			for _, e := range d.entries {
				sum += e.bytes
			}
			if sum != d.bytes {
				t.Fatalf("after %d pulls the entries hold %d bytes, the tally says %d", i+1, sum, d.bytes)
			}
		}
		d.mu.Unlock()
	}
	if peak > dedupMaxBytes {
		t.Fatalf("dedup window retained %d bytes, bound is %d", peak, dedupMaxBytes)
	}
	if peak < dedupMaxBytes/2 {
		t.Fatalf("peak retention %d never approached the %d bound: the test did not exercise it", peak, dedupMaxBytes)
	}
	resp := d.do(0, fab.seq.Load(), func() tcpResponse {
		t.Error("a retry of the most recent request was re-processed")
		return tcpResponse{}
	})
	if got, err := DecodeMsgs(nil, resp.payload); err != nil || len(got) != perPull {
		t.Fatalf("recorded response decodes to %d messages, %v", len(got), err)
	}
}

// comm.tcp.frame_bytes is the physical twin of comm.net_bytes: on an
// unconcatenated push the sockets carry the semantic bytes plus one small
// header per packet (request envelope, count prefix, response envelope)
// and gob's one-off type descriptors per connection.
func TestTCPFrameBytesTracksNetBytes(t *testing.T) {
	const (
		perPacket   = 200
		packets     = 150
		frameHeader = 64   // request envelope + count prefix + response envelope
		connSetup   = 1024 // gob type descriptors, once per direction
	)
	fab, _ := newTCPPair(t)
	reg := obs.NewRegistry()
	fab.SetMetrics(reg)
	ob := NewOutbox(fab, 2, 0, 1, perPacket*MsgWireSize)
	for i := 0; i < perPacket*packets; i++ {
		if err := ob.Add(1, Msg{Dst: graph.VertexID(i), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	net, frames := snap["comm.net_bytes"], snap["comm.tcp.frame_bytes"]
	if net != perPacket*packets*MsgWireSize || ob.Flushes() != packets {
		t.Fatalf("net_bytes = %d in %d packets, want %d in %d", net, ob.Flushes(), perPacket*packets*MsgWireSize, packets)
	}
	if frames < net {
		t.Fatalf("frame_bytes %d < net_bytes %d: the wire cannot carry less than the messages", frames, net)
	}
	if limit := net + net/100 + packets*frameHeader + connSetup; frames > limit {
		t.Fatalf("frame_bytes %d exceeds net_bytes %d by more than 1%% + %d B/packet (limit %d): %.1f B of framing per packet",
			frames, net, frameHeader, limit, float64(frames-net)/packets)
	}
	t.Logf("framing: %.1f B per packet over %d B of messages", float64(frames-net)/packets, perPacket*MsgWireSize)

	// Without a registry the counter is simply not exported.
	bare, _ := newTCPPair(t)
	bare.SetMetrics(nil)
	if err := bare.Send(&Packet{From: 0, To: 1, Step: 1, Msgs: []Msg{{Dst: 1, Val: 1}}}); err != nil {
		t.Fatal(err)
	}
}
