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
// fabric's payloads, msgstore's memory, spill files and pending lists,
// msglog's segments, checkpoint snapshots — until the drain that groups
// it reads it. Where a store needs a count in front of a run (a log
// record, a snapshot's pending list), the store writes it.

// Records is a run of whole MsgWireSize-byte records with no count
// prefix: how every store and payload above holds its messages.
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
		return nil, &PayloadError{Len: len(b)}
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

// PayloadError reports bytes presented as Records that are not a whole
// number of records.
type PayloadError struct {
	Len int // bytes presented
}

// Error implements error.
func (e *PayloadError) Error() string {
	return fmt.Sprintf("comm: malformed message payload: %d bytes are not whole %d-byte records", e.Len, MsgWireSize)
}

// Unwrap ties the error to ErrPayload.
func (e *PayloadError) Unwrap() error { return ErrPayload }
