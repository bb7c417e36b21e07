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
	enc := AppendMsgs(nil, msgs)
	if want := payloadHeader + len(msgs)*MsgWireSize; len(enc) != want {
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	got, err := DecodeMsgs(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, msgs) {
		t.Fatalf("round trip changed bits:\n got  %v\n want %v", got, msgs)
	}
	// Appending: both sides extend what they are given.
	prefix := []byte("hdr")
	enc2 := AppendMsgs(prefix, msgs[:2])
	if !bytes.HasPrefix(enc2, prefix) || !bytes.Equal(enc2[3:], AppendMsgs(nil, msgs[:2])) {
		t.Fatal("AppendMsgs disturbed the bytes it was appending to")
	}
	got, err = DecodeMsgs(msgs[:1:1], enc2[3:])
	if err != nil || !sameBits(got, append(msgs[:1:1], msgs[:2]...)) {
		t.Fatalf("DecodeMsgs did not append: %v, %v", got, err)
	}
	// The empty run is a bare count.
	if got, err := DecodeMsgs(nil, AppendMsgs(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestPayloadRejectsTruncatedAndOddLengths(t *testing.T) {
	enc := AppendMsgs(nil, []Msg{{Dst: 1, Val: 1}, {Dst: 2, Val: 2}, {Dst: 3, Val: 3}})
	bad := map[string][]byte{
		"nil":              nil,
		"cut count":        enc[:payloadHeader-1],
		"count only":       enc[:payloadHeader],
		"cut mid record":   enc[:payloadHeader+MsgWireSize+5],
		"one record short": enc[:len(enc)-MsgWireSize],
		"one byte short":   enc[:len(enc)-1],
		"one byte long":    append(append([]byte(nil), enc...), 0),
		"one record long":  append(append([]byte(nil), enc...), make([]byte, MsgWireSize)...),
	}
	for name, b := range bad {
		got, err := DecodeMsgs(nil, b)
		var pe *PayloadError
		if !errors.Is(err, ErrPayload) || !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *PayloadError", name, err)
			continue
		}
		if pe.Len != len(b) || len(got) != 0 {
			t.Errorf("%s: PayloadError.Len = %d for %d bytes; decoded %d messages", name, pe.Len, len(b), len(got))
		}
	}
	// Bare records have no count to disagree with: only a partial record
	// is malformed.
	recs := enc[payloadHeader:]
	for _, n := range []int{1, MsgWireSize - 1, MsgWireSize + 5, len(recs) - 1, len(recs) + 1} {
		b := append(append([]byte(nil), recs...), make([]byte, MsgWireSize)...)[:n]
		var pe *PayloadError
		if _, err := AsRecords(b); !errors.As(err, &pe) || !pe.Bare || pe.Len != n {
			t.Errorf("%d bare bytes: err = %v, want a bare *PayloadError", n, err)
		}
	}
	for _, n := range []int{0, MsgWireSize, len(recs)} {
		if r, err := AsRecords(recs[:n]); err != nil || r.Len() != n/MsgWireSize {
			t.Errorf("%d bare bytes: %d records, %v", n, r.Len(), err)
		}
	}
}

// FuzzDecodeMsgs feeds arbitrary bytes to the payload decoder: it must
// return either a typed error or messages that re-encode to the input
// exactly — never panic, never accept a run it cannot reproduce.
func FuzzDecodeMsgs(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendMsgs(nil, nil))
	f.Add(AppendMsgs(nil, []Msg{{Dst: 9, Val: math.NaN()}, {Dst: graph.VertexID(1 << 31), Val: math.Copysign(0, -1)}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendMsgs(nil, []Msg{{Dst: 1, Val: 1}})[:9])
	f.Fuzz(func(t *testing.T, b []byte) {
		msgs, err := DecodeMsgs(nil, b)
		if err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if again := AppendMsgs(nil, msgs); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x but re-encodes to %x", b, again)
		}
	})
}
