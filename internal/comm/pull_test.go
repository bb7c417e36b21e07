package comm

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// tagged is a responder that answers each requester in a buffer of its
// own, reused the way a worker's respond buffer is: the requester is the
// requested block's id, and a response's messages carry the requester and
// how many times it has pulled, so a response read after its lifetime —
// or delivered to the wrong requester — shows. Before refilling a buffer
// it poisons what the buffer held.
type tagged struct {
	sink
	mu    sync.Mutex
	calls int         // handler runs, all requesters
	pulls map[int]int // per requester
	bufs  map[int][]Msg
}

func newTagged() *tagged { return &tagged{pulls: map[int]int{}, bufs: map[int][]Msg{}} }

// taggedResponse is what requester r's k-th pull (from 1) returns: a length
// that varies with k, every message naming r and k.
func taggedResponse(r, k int) []Msg {
	out := make([]Msg, 1+(7*k+3*r)%13)
	for i := range out {
		out[i] = Msg{Dst: graph.VertexID(1000*r + i), Val: float64(1000*r + k)}
	}
	return out
}

func (h *tagged) RespondPull(block, step int) ([]Msg, int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	h.pulls[block]++
	buf := h.bufs[block]
	for i := range buf {
		buf[i] = Msg{Dst: 1<<32 - 1, Val: -1}
	}
	buf = append(buf[:0], taggedResponse(block, h.pulls[block])...)
	h.bufs[block] = buf
	return buf, ConcatSize(buf), nil
}

func (h *tagged) runs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// Fabric.PullRequest's result lives until its own pair pulls again: two
// requesters interleave pulls from one responder, which answers each in a
// buffer it reuses, and every response held — the other pair's included —
// stays intact and carries only its own requester's messages, on both
// fabrics.
func TestPullResponsesLiveUntilThePairPullsAgain(t *testing.T) {
	fabrics := map[string]func(t *testing.T) Fabric{
		"local": func(*testing.T) Fabric { return NewLocal(3) },
		"tcp": func(t *testing.T) Fabric {
			f, err := NewTCP(3)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			fab := mk(t)
			fab.Register(2, newTagged())
			var held, want [2][]Msg
			for round := 1; round <= 20; round++ {
				for i := range 2 {
					r := (round + i) % 2 // alternate which requester leads
					msgs, _, err := fab.PullRequest(r, 2, r, round)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(msgs, taggedResponse(r, round)) {
						t.Fatalf("round %d: requester %d got %v, want its own response %v", round, r, msgs, taggedResponse(r, round))
					}
					held[r], want[r] = msgs, slices.Clone(msgs)
					for q := range 2 {
						if !slices.Equal(held[q], want[q]) {
							t.Fatalf("round %d: requester %d's response changed when requester %d pulled: %v, want %v",
								round, q, r, held[q], want[q])
						}
					}
				}
			}
		})
	}
}

// rawPull sends one pull request with sequence number seq on a fresh
// connection to worker to, as a retry on a new connection would, and
// returns the response's records. An error means the server closed the
// connection without answering.
func rawPull(t *testing.T, fab *TCP, from, to, block int, seq uint64) (Records, error) {
	t.Helper()
	c, err := net.Dial("tcp", fab.addrs[to])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	s := newTCPStream(c, new(atomic.Int64))
	if err := s.send(&tcpRequest{Kind: tcpPull, Seq: seq, From: from, To: to, Block: block, Step: 2}, nil); err != nil {
		return nil, err
	}
	var resp tcpResponse
	if err := s.dec.Decode(&resp); err != nil {
		return nil, err
	}
	raw, err := s.recvPayload(resp.PayloadLen)
	return slices.Clone(Records(raw)), err
}

// The server answers a pull from the handler's own buffer. Under dropped
// responses, duplicated requests and delays, the handler still runs once
// per pull, and every retry gets the first run's bytes. A retry on a new
// connection before the requester's next pull gets them too; once the
// requester has pulled again, a stale copy of the old request — or of any
// older sequence number — is refused by closing its connection, without
// running the handler or writing a byte of the reused buffer.
func TestTCPPullRetriesAnswerFromTheRecord(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		fab, err := NewTCPConfig(2, TCPConfig{Timeout: 30 * time.Millisecond, Faults: &faultplan.TransportFaults{
			Seed: 41, DropResponse: 0.3, Duplicate: 0.3, Delay: 0.3, MaxDelay: 2 * time.Millisecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fab.Close() })
		reg := obs.NewRegistry()
		fab.SetMetrics(reg)
		h := newTagged()
		fab.Register(1, h)
		const pulls = 60
		for k := 1; k <= pulls; k++ {
			msgs, _, err := fab.PullRequest(0, 1, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if runs := h.runs(); runs != k {
				t.Fatalf("after %d pulls the handler ran %d times", k, runs)
			}
			if !slices.Equal(msgs, taggedResponse(0, k)) {
				t.Fatalf("pull %d returned %v, want the first run's %v", k, msgs, taggedResponse(0, k))
			}
		}
		snap := reg.Snapshot()
		if snap["comm.tcp.retries"] == 0 || snap["comm.tcp.dedup_hits"] == 0 {
			t.Fatalf("no retry or duplicate was answered from a record (retries %d, dedup hits %d): the faults did not fire",
				snap["comm.tcp.retries"], snap["comm.tcp.dedup_hits"])
		}
	})
	t.Run("stale", func(t *testing.T) {
		fab, err := NewTCP(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fab.Close() })
		h := newTagged()
		fab.Register(1, h)
		first, _, err := fab.PullRequest(0, 1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		first = slices.Clone(first)
		seqA := fab.seq.Load()
		retry, err := rawPull(t, fab, 0, 1, 0, seqA)
		if err != nil {
			t.Fatalf("a retry before the next pull was refused: %v", err)
		}
		if got := DecodeRecords(nil, retry); !slices.Equal(got, first) || h.runs() != 1 {
			t.Fatalf("the retry returned %v after %d handler runs, want the first run's %v after 1", got, h.runs(), first)
		}
		if _, err := fab.Gather(0, 1, nil, 2); err != nil { // a sequence number that is no pull
			t.Fatal(err)
		}
		if _, _, err := fab.PullRequest(0, 1, 0, 2); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		fab.SetMetrics(reg)
		frames := reg.Snapshot()["comm.tcp.frame_bytes"]
		for _, seq := range []uint64{seqA, seqA + 1} {
			if recs, err := rawPull(t, fab, 0, 1, 0, seq); err == nil {
				t.Errorf("a stale pull with sequence number %d was answered with %d records", seq, recs.Len())
			}
		}
		if h.runs() != 2 {
			t.Errorf("the handler ran %d times for 2 pulls: a stale request ran it", h.runs())
		}
		if got := reg.Snapshot()["comm.tcp.frame_bytes"]; got != frames {
			t.Errorf("the server wrote %d bytes in answer to stale requests", got-frames)
		}
		// A retry that met the record before the next pull retired it, and
		// encodes only after, must not read the reused buffer either.
		if _, ok := fab.dedups[1].pair(0).encode(seqA, first, nil); ok {
			t.Error("a retired response was encoded")
		}
	})
}

// fixedPull is a responder whose every pull returns the same messages.
type fixedPull struct {
	sink
	out []Msg
}

func (h fixedPull) RespondPull(int, int) ([]Msg, int64, error) {
	return h.out, int64(len(h.out)) * MsgWireSize, nil
}

// A warm TCP pull allocates nothing in proportion to its response: the
// client decodes into the pair's slot and the server encodes into the
// connection's send buffer, so what a pull allocates — gob's envelopes,
// the dedup record — is the same for 64 messages as for 8192.
func TestTCPPullAllocationIndependentOfResponseSize(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which the race detector perturbs")
	}
	const pulls = 200
	perPull := func(n int) float64 {
		fab, err := NewTCP(2)
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		fab.Register(1, fixedPull{out: make([]Msg, n)})
		pull := func() {
			msgs, _, err := fab.PullRequest(0, 1, 0, 2)
			if err != nil || len(msgs) != n {
				t.Fatalf("pull returned %d messages, %v", len(msgs), err)
			}
		}
		for range 5 {
			pull()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range pulls {
			pull()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / pulls
	}
	small, large := perPull(64), perPull(8192)
	t.Logf("bytes allocated per warm pull: %.0f for 64 messages, %.0f for 8192", small, large)
	if large-small > 256 {
		t.Errorf("a warm pull of 8192 messages allocated %.0f B, one of 64 %.0f B: the response is copied per pull", large, small)
	}
}
