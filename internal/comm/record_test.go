package comm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hybridgraph/internal/graph"
)

// sameBits compares messages by value bit pattern: NaN != NaN and
// -0 == +0 under ==, which is exactly what the codec must not lean on.
func sameBits(a, b []Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dst != b[i].Dst || math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

func TestPayloadRoundTripKeepsEveryBit(t *testing.T) {
	msgs := []Msg{
		{Dst: 0, Val: 0},
		{Dst: 1, Val: math.Copysign(0, -1)},
		{Dst: 2, Val: math.Inf(1)},
		{Dst: 3, Val: math.Inf(-1)},
		{Dst: 4, Val: math.NaN()},
		{Dst: 5, Val: math.Float64frombits(0x7ff8dead0000beef)}, // quiet NaN with a payload
		{Dst: 6, Val: math.Float64frombits(0xfff0000000000001)}, // negative signalling NaN
		{Dst: math.MaxUint32, Val: math.SmallestNonzeroFloat64},
		{Dst: 7, Val: -math.MaxFloat64},
	}
	enc := AppendRecords(nil, msgs)
	if want := len(msgs) * MsgWireSize; len(enc) != want {
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	if got := DecodeRecords(nil, enc); !sameBits(got, msgs) {
		t.Fatalf("round trip changed bits:\n got  %v\n want %v", got, msgs)
	}
	for i := range msgs {
		if got := enc.At(i); !sameBits([]Msg{got}, msgs[i:i+1]) {
			t.Fatalf("At(%d) = %v, want %v", i, got, msgs[i])
		}
	}
	// Appending: both sides extend what they are given.
	prefix := Records("hdr")
	enc2 := AppendRecords(prefix, msgs[:2])
	if !bytes.HasPrefix(enc2, prefix) || !bytes.Equal(enc2[3:], AppendRecords(nil, msgs[:2])) {
		t.Fatal("AppendRecords disturbed the bytes it was appending to")
	}
	if got := DecodeRecords(msgs[:1:1], enc2[3:]); !sameBits(got, append(msgs[:1:1], msgs[:2]...)) {
		t.Fatalf("DecodeRecords did not append: %v", got)
	}
	// The empty run is no bytes at all.
	if enc := AppendRecords(nil, nil); len(enc) != 0 || len(DecodeRecords(nil, enc)) != 0 {
		t.Fatalf("empty run encoded as %x", enc)
	}
}

// Bare records have no count to disagree with: only a partial record is
// malformed.
func TestPayloadRejectsTruncatedAndOddLengths(t *testing.T) {
	recs := AppendRecords(nil, []Msg{{Dst: 1, Val: 1}, {Dst: 2, Val: 2}, {Dst: 3, Val: 3}})
	for _, n := range []int{1, MsgWireSize - 1, MsgWireSize + 5, len(recs) - 1, len(recs) + 1} {
		b := append(append([]byte(nil), recs...), make([]byte, MsgWireSize)...)[:n]
		var pe *PayloadError
		if r, err := AsRecords(b); !errors.Is(err, ErrPayload) || !errors.As(err, &pe) || pe.Len != n || r != nil {
			t.Errorf("%d bare bytes: %d records, err = %v, want a *PayloadError", n, r.Len(), err)
		}
	}
	for _, n := range []int{0, MsgWireSize, len(recs)} {
		if r, err := AsRecords(recs[:n]); err != nil || r.Len() != n/MsgWireSize {
			t.Errorf("%d bare bytes: %d records, %v", n, r.Len(), err)
		}
	}
}

// FuzzAsRecords feeds arbitrary bytes to the payload check: it must
// return either a typed error or records that re-encode to the input
// exactly — never panic, never accept bytes it cannot reproduce.
func FuzzAsRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(AppendRecords(nil, []Msg{{Dst: 1, Val: 1}})))
	f.Add([]byte(AppendRecords(nil, []Msg{{Dst: 9, Val: math.NaN()}, {Dst: graph.VertexID(1 << 31), Val: math.Copysign(0, -1)}})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte(AppendRecords(nil, []Msg{{Dst: 1, Val: 1}})[:9]))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := AsRecords(b)
		if err != nil {
			if !errors.Is(err, ErrPayload) || len(b)%MsgWireSize == 0 {
				t.Fatalf("%d bytes: %v", len(b), err)
			}
			return
		}
		if again := AppendRecords(nil, DecodeRecords(nil, r)); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x but re-encodes to %x", b, again)
		}
	})
}
