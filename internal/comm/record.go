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
// destination id then value bits, little-endian. A pushed message is
// written in it once, by Outbox.Add, and travels as Records — the TCP
// fabric's payloads, msgstore's memory and spill files, msglog's segments
// — until the drain that groups it reads it. Only msglog still frames a
// run as a 4-byte count followed by that many records (AppendMsgs,
// DecodeMsgs).

// payloadHeader is the count prefix of an encoded run.
const payloadHeader = 4

// Records is a run of whole MsgWireSize-byte records with no count
// prefix: how a push packet, an inbox's memory and a pull response's
// payload hold their messages.
type Records []byte

// Len reports the number of records.
func (r Records) Len() int { return len(r) / MsgWireSize }

// At decodes record i.
func (r Records) At(i int) Msg { return GetRecord(r[i*MsgWireSize:]) }

// AppendRecords appends msgs to r as records.
func AppendRecords(r Records, msgs []Msg) Records {
	off := len(r)
	r = slices.Grow(r, len(msgs)*MsgWireSize)[:off+len(msgs)*MsgWireSize]
	for _, m := range msgs {
		PutRecord(r[off:], m)
		off += MsgWireSize
	}
	return r
}

// DecodeRecords appends the messages of r to dst.
func DecodeRecords(dst []Msg, r Records) []Msg {
	dst = slices.Grow(dst, r.Len())
	for off := 0; off+MsgWireSize <= len(r); off += MsgWireSize {
		dst = append(dst, GetRecord(r[off:]))
	}
	return dst
}

// AsRecords returns b as Records, or a *PayloadError when it is not a
// whole number of records.
func AsRecords(b []byte) (Records, error) {
	if len(b)%MsgWireSize != 0 {
		return nil, &PayloadError{Len: len(b), Count: -1, Bare: true}
	}
	return Records(b), nil
}

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
// count prefix — truncated, padded, or not a whole number of records — or
// bare Records that are not a whole number of records.
type PayloadError struct {
	Len   int   // bytes presented
	Count int64 // records the prefix claims; -1 when there is no prefix or it is cut
	Bare  bool  // the run has no count prefix
}

// Error implements error.
func (e *PayloadError) Error() string {
	if e.Bare {
		return fmt.Sprintf("comm: malformed message payload: %d bytes are not whole %d-byte records", e.Len, MsgWireSize)
	}
	if e.Count < 0 {
		return fmt.Sprintf("comm: malformed message payload: %d bytes cannot hold a count", e.Len)
	}
	return fmt.Sprintf("comm: malformed message payload: %d bytes for %d records", e.Len, e.Count)
}

// Unwrap ties the error to ErrPayload.
func (e *PayloadError) Unwrap() error { return ErrPayload }

// AppendMsgs appends the encoded run of msgs to b: their count, then
// their records.
func AppendMsgs(b []byte, msgs []Msg) []byte {
	b = slices.Grow(b, payloadHeader+len(msgs)*MsgWireSize)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(msgs)))
	return AppendRecords(b, msgs)
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
	return DecodeRecords(dst, b[payloadHeader:]), nil
}
