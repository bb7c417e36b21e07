package comm

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

func newTCPPair(t *testing.T) (*TCP, *recorder) {
	t.Helper()
	fab, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	r := &recorder{}
	fab.Register(1, r)
	return fab, r
}

func TestTCPSend(t *testing.T) {
	fab, r := newTCPPair(t)
	p := &Packet{From: 0, To: 1, Step: 3, Msgs: recs([]Msg{{Dst: 7, Val: 1.5}, {Dst: 8, Val: 2.5}})}
	if err := fab.Send(p); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.packets) != 1 {
		t.Fatalf("packets = %d", len(r.packets))
	}
	got := r.packets[0]
	if got.Step != 3 || len(got.Msgs) != 2 || got.Msgs[1].Val != 2.5 {
		t.Fatalf("packet = %+v", got)
	}
	if fab.TotalBytes() != 2*MsgWireSize {
		t.Fatalf("total bytes = %d", fab.TotalBytes())
	}
}

func TestTCPPullRequest(t *testing.T) {
	fab, r := newTCPPair(t)
	r.mu.Lock()
	r.pullOut = []Msg{{Dst: 3, Val: 9}}
	r.mu.Unlock()
	msgs, wire, err := fab.PullRequest(0, 1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Val != 9 {
		t.Fatalf("msgs = %v", msgs)
	}
	if wire != ConcatSize(r.pullOut) {
		t.Fatalf("wire = %d", wire)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pulls) != 1 || r.pulls[0] != 5 {
		t.Fatalf("pulls = %v", r.pulls)
	}
}

func TestTCPGatherAndSignal(t *testing.T) {
	fab, r := newTCPPair(t)
	ids := []graph.VertexID{1, 2}
	res, err := fab.Gather(0, 1, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Vals[0] != 1 {
		t.Fatalf("gather = %v", res)
	}
	if err := fab.Signal(0, 1, ids, 4); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.signals) != 1 {
		t.Fatalf("signals = %v", r.signals)
	}
}

func TestTCPUnregisteredHandler(t *testing.T) {
	fab, _ := newTCPPair(t)
	// Worker 0 has no handler.
	if err := fab.Send(&Packet{From: 1, To: 0, Msgs: recs([]Msg{{Dst: 1}})}); err == nil {
		t.Fatal("Send to unregistered worker should fail")
	}
	if _, _, err := fab.PullRequest(1, 9, 0, 1); err == nil {
		t.Fatal("PullRequest to nonexistent worker should fail")
	}
	// Both fabrics look the handler up through the one router, so an
	// unregistered worker fails with the same text whichever carried it.
	_, _, tcpErr := fab.PullRequest(1, 0, 0, 1)
	_, _, localErr := NewLocal(2).PullRequest(1, 0, 0, 1)
	if tcpErr == nil || localErr == nil || tcpErr.Error() != localErr.Error() {
		t.Fatalf("unregistered-worker errors differ: TCP %v, Local %v", tcpErr, localErr)
	}
}

func TestTCPConcurrentRequests(t *testing.T) {
	fab, _ := newTCPPair(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, _, err := fab.PullRequest(0, 1, i, 2)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func newFaultyTCPPair(t *testing.T, faults faultplan.TransportFaults) (*TCP, *recorder) {
	t.Helper()
	fab, err := NewTCPConfig(2, TCPConfig{
		Timeout: 30 * time.Millisecond,
		Faults:  &faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	r := &recorder{}
	fab.Register(1, r)
	return fab, r
}

// TestTCPFaultyExactlyOnce floods a lossy, duplicating, delaying link with
// sends and signals; every logical operation must be applied to the
// handler exactly once, and the semantic byte accounting must match what a
// fault-free fabric would charge.
func TestTCPFaultyExactlyOnce(t *testing.T) {
	fab, r := newFaultyTCPPair(t, faultplan.TransportFaults{
		Seed:         11,
		DropRequest:  0.15,
		DropResponse: 0.1,
		Duplicate:    0.15,
		Delay:        0.2,
		MaxDelay:     3 * time.Millisecond,
	})
	const n = 50
	for i := 0; i < n; i++ {
		p := &Packet{From: 0, To: 1, Step: 2, Msgs: recs([]Msg{{Dst: graph.VertexID(i), Val: float64(i)}})}
		if err := fab.Send(p); err != nil {
			t.Fatal(err)
		}
		if err := fab.Signal(0, 1, []graph.VertexID{graph.VertexID(i)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.packets) != n {
		t.Fatalf("handler saw %d packets, want exactly %d (no loss, no duplicates)", len(r.packets), n)
	}
	seen := map[graph.VertexID]bool{}
	for _, p := range r.packets {
		if len(p.Msgs) != 1 || seen[p.Msgs[0].Dst] {
			t.Fatalf("duplicate or malformed delivery: %+v", p)
		}
		seen[p.Msgs[0].Dst] = true
	}
	if len(r.signals) != n {
		t.Fatalf("handler saw %d signal batches, want exactly %d", len(r.signals), n)
	}
	if want := int64(n)*MsgWireSize + int64(n)*GatherIDSize; fab.TotalBytes() != want {
		t.Fatalf("total bytes = %d, want %d (retries must not be double-charged)", fab.TotalBytes(), want)
	}
}

// TestTCPFaultyPullsMatchCleanResponses checks request/response round
// trips survive faults with responses intact and in order.
func TestTCPFaultyPullsMatchCleanResponses(t *testing.T) {
	fab, r := newFaultyTCPPair(t, faultplan.TransportFaults{
		Seed:         23,
		DropRequest:  0.2,
		DropResponse: 0.1,
		Duplicate:    0.1,
	})
	r.mu.Lock()
	r.pullOut = []Msg{{Dst: 3, Val: 9}, {Dst: 4, Val: 16}}
	r.mu.Unlock()
	for i := 0; i < 40; i++ {
		msgs, wire, err := fab.PullRequest(0, 1, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 2 || msgs[0].Val != 9 || msgs[1].Val != 16 {
			t.Fatalf("pull %d returned %v", i, msgs)
		}
		if wire != ConcatSize(msgs) {
			t.Fatalf("pull %d wire = %d", i, wire)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pulls) != 40 {
		t.Fatalf("handler answered %d pulls, want exactly 40", len(r.pulls))
	}
}

// TestTCPFaultyConcurrent hammers the lossy fabric from many goroutines;
// run under -race this covers the per-peer dial locks, connection
// invalidation and the dedup table's in-flight waiters.
func TestTCPFaultyConcurrent(t *testing.T) {
	fab, r := newFaultyTCPPair(t, faultplan.TransportFaults{
		Seed:         37,
		DropRequest:  0.1,
		DropResponse: 0.1,
		Duplicate:    0.2,
		Delay:        0.2,
		MaxDelay:     2 * time.Millisecond,
	})
	const n = 32
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			if i%2 == 0 {
				_, _, err := fab.PullRequest(0, 1, i, 2)
				done <- err
				return
			}
			done <- fab.Send(&Packet{From: 0, To: 1, Step: 2, Msgs: recs([]Msg{{Dst: graph.VertexID(i)}})})
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.packets) != n/2 || len(r.pulls) != n/2 {
		t.Fatalf("handler saw %d packets and %d pulls, want %d each", len(r.packets), len(r.pulls), n/2)
	}
}

// TestTCPDroppedResponseStillAppliedOnce is the sharpest exactly-once
// case: every response is lost, so the client retries until it gives up —
// yet the handler must have applied the operation exactly once.
func TestTCPDroppedResponseStillAppliedOnce(t *testing.T) {
	fab, err := NewTCPConfig(2, TCPConfig{
		Timeout: 20 * time.Millisecond,
		Faults:  &faultplan.TransportFaults{Seed: 5, DropResponse: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	r := &recorder{}
	fab.Register(1, r)
	if err := fab.Send(&Packet{From: 0, To: 1, Msgs: recs([]Msg{{Dst: 1, Val: 1}})}); err == nil {
		t.Fatal("Send should fail when every response is lost")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.packets) != 1 {
		t.Fatalf("handler applied the send %d times, want exactly 1", len(r.packets))
	}
}

// TestTCPGivesUpOnDeadPeer checks roundTrip no longer blocks forever: a
// peer that accepts and reads but never answers costs a bounded number of
// attempts, each ended by the request deadline.
func TestTCPGivesUpOnDeadPeer(t *testing.T) {
	fab, err := NewTCPConfig(2, TCPConfig{Timeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	fab.mu.Lock()
	fab.addrs[1] = silent.Addr().String()
	fab.mu.Unlock()

	start := time.Now()
	err = fab.Signal(0, 1, []graph.VertexID{1}, 1)
	if err == nil {
		t.Fatal("Signal to a silent peer should eventually fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("giving up took %v; retries are not bounded", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error %v does not wrap a timed-out net.Error", err)
	}
}

// TestInjectedDropRetriesAtOnce: an injected drop breaks the connection,
// so the client retries without waiting out the request deadline, and a
// dropped response is still applied exactly once.
func TestInjectedDropRetriesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults faultplan.TransportFaults
	}{
		{"request", faultplan.TransportFaults{Seed: 1, DropRequest: 1.0}},
		{"response", faultplan.TransportFaults{Seed: 1, DropResponse: 1.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, err := NewTCPConfig(2, TCPConfig{Timeout: 5 * time.Second, Faults: &tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fab.Close() })
			r := &recorder{}
			fab.Register(1, r)
			start := time.Now()
			if err := fab.Send(&Packet{From: 0, To: 1, Msgs: recs([]Msg{{Dst: 1, Val: 1}})}); err == nil {
				t.Fatal("Send should fail when every attempt is dropped")
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("giving up took %v; drops waited out the request deadline", elapsed)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			want := 0
			if tc.faults.DropResponse > 0 {
				want = 1
			}
			if len(r.packets) != want {
				t.Fatalf("handler applied the send %d times, want %d", len(r.packets), want)
			}
		})
	}
}

// A push frame whose payload is not a whole number of records is refused
// by the serving side before any handler runs. The payload has left the
// stream, so the connection stays in step and the next Send goes through.
func TestTCPRefusesPartialRecords(t *testing.T) {
	fab, r := newTCPPair(t)
	bad := &Packet{From: 0, To: 1, Step: 1, Msgs: make(Records, 2*MsgWireSize+5)}
	if err := fab.Send(bad); err == nil || !strings.Contains(err.Error(), "not whole") {
		t.Fatalf("a 29-byte payload was answered with %v, want a refusal", err)
	}
	r.mu.Lock()
	ran := len(r.packets)
	r.mu.Unlock()
	if ran != 0 {
		t.Fatalf("the handler ran %d times for a refused payload", ran)
	}
	if err := fab.Send(&Packet{From: 0, To: 1, Step: 1, Msgs: recs([]Msg{{Dst: 4, Val: 2}})}); err != nil {
		t.Fatalf("Send after the refusal: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.packets) != 1 || len(r.packets[0].Msgs) != 1 || r.packets[0].Msgs[0] != (Msg{Dst: 4, Val: 2}) {
		t.Fatalf("after the refusal the handler saw %v", r.packets)
	}
}
