package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"hybridgraph/internal/graph"
)

// The one byte layout a message has outside a Go slice: MsgWireSize bytes,
// destination id then value bits, little-endian. The TCP fabric's payloads,
// msgstore's spill files and msglog's segments all go through the
// functions below, and a run of messages is always a 4-byte count followed
// by that many records.

// payloadHeader is the count prefix of an encoded run.
const payloadHeader = 4

// PutRecord writes m into b[:MsgWireSize].
func PutRecord(b []byte, m Msg) {
	binary.LittleEndian.PutUint32(b, uint32(m.Dst))
	binary.LittleEndian.PutUint64(b[MsgIDSize:], math.Float64bits(m.Val))
}

// GetRecord reads the record at b[:MsgWireSize]. The value travels as its
// bit pattern, so NaN payloads and the sign of zero survive.
func GetRecord(b []byte) Msg {
	return Msg{
		Dst: graph.VertexID(binary.LittleEndian.Uint32(b)),
		Val: math.Float64frombits(binary.LittleEndian.Uint64(b[MsgIDSize:])),
	}
}

// ErrPayload is the sentinel every PayloadError wraps.
var ErrPayload = errors.New("comm: malformed message payload")

// PayloadError reports an encoded run whose length disagrees with its
// count prefix: truncated, padded, or not a whole number of records.
type PayloadError struct {
	Len   int   // bytes presented
	Count int64 // records the prefix claims; -1 when the prefix itself is cut
}

// Error implements error.
func (e *PayloadError) Error() string {
	if e.Count < 0 {
		return fmt.Sprintf("comm: malformed message payload: %d bytes cannot hold a count", e.Len)
	}
	return fmt.Sprintf("comm: malformed message payload: %d bytes for %d records", e.Len, e.Count)
}

// Unwrap ties the error to ErrPayload.
func (e *PayloadError) Unwrap() error { return ErrPayload }

// AppendMsgs appends the encoded run of msgs to b.
func AppendMsgs(b []byte, msgs []Msg) []byte {
	off := len(b)
	b = slices.Grow(b, payloadHeader+len(msgs)*MsgWireSize)[:off+payloadHeader+len(msgs)*MsgWireSize]
	binary.LittleEndian.PutUint32(b[off:], uint32(len(msgs)))
	off += payloadHeader
	for _, m := range msgs {
		PutRecord(b[off:], m)
		off += MsgWireSize
	}
	return b
}

// DecodeMsgs decodes one encoded run, appending its messages to dst. b
// must be exactly the run.
func DecodeMsgs(dst []Msg, b []byte) ([]Msg, error) {
	if len(b) < payloadHeader {
		return dst, &PayloadError{Len: len(b), Count: -1}
	}
	count := int64(binary.LittleEndian.Uint32(b))
	if int64(len(b)-payloadHeader) != count*MsgWireSize {
		return dst, &PayloadError{Len: len(b), Count: count}
	}
	dst = slices.Grow(dst, int(count))
	for off := payloadHeader; off < len(b); off += MsgWireSize {
		dst = append(dst, GetRecord(b[off:]))
	}
	return dst, nil
}
