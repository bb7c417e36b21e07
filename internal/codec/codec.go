// Package codec is the pluggable block-codec subsystem for every
// on-disk structure the engine writes: adjacency runs, VE-BLOCK
// fragments, message spills, msglog segments and checkpoint snapshots.
//
// The design splits byte accounting into two dimensions. The *logical*
// bytes are the paper's cost model — Eqs. (7)/(8), the Q^t switch
// inputs, the trace-vs-stats cross-checks — and are computed exactly as
// if every structure were stored raw, whatever codec is active. The
// *physical* bytes are what actually hits the disk: compressed frames,
// charged to a parallel physical counter (diskio.Counter.Phys). A codec
// therefore never changes a job's logical statistics or its final
// values; it only shrinks the physical dimension. The package is also
// the only one that tells codecs apart: each structure has one type here
// (a SpillFile, an Appender, WriteFile/ReadFile, a BlockWriter, a Reader)
// that under the identity codec "none" keeps the logical bytes as they
// are, with the physical twin mirroring every logical charge (file.go).
//
// Every compressed block is wrapped in a self-describing frame:
//
//	offset size  field
//	0      4     magic "HGCB"
//	4      1     codec ID (registry: none=0, delta=1, lz=2)
//	5      1     reserved (zero)
//	6      4     logical length  (uint32 LE, bytes before encoding)
//	10     4     physical length (uint32 LE, bytes of payload)
//	14     n     payload (encoded bytes)
//	14+n   4     CRC32 (IEEE) of header+payload
//
// The trailing CRC covers the header too, so a bit flip anywhere in the
// frame — length fields included — surfaces as ErrCorrupt rather than a
// silent mis-decode. Frames are self-delimiting: ParseHeader on the
// first HeaderSize bytes yields the total frame length.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// Frame geometry.
const (
	HeaderSize    = 14             // magic + id + reserved + 2×u32
	FrameOverhead = HeaderSize + 4 // plus trailing CRC32
	MaxBlockLen   = 1<<31 - 1      // lengths are u32; keep int-safe
	magic         = "HGCB"
)

// ErrCorrupt is the typed sentinel every decode failure wraps: bad
// magic, truncated frame, CRC mismatch, unknown codec ID, or a payload
// that does not decode to its declared logical length. Callers match it
// with errors.Is, including through the diskio fault layer's wrapping.
var ErrCorrupt = errors.New("codec: corrupt block")

// ErrUnknown reports a codec name that is not registered.
var ErrUnknown = errors.New("codec: unknown codec")

// Codec encodes a logical byte block into a physical payload and back.
// Encode never fails (every codec has a raw fallback); Decode validates
// and reports ErrCorrupt-wrapped failures.
type Codec interface {
	Name() string
	ID() byte
	// Encode appends the encoded form of src to dst and returns it.
	Encode(dst, src []byte) []byte
	// Decode appends the decoded form of src to dst and returns it. The
	// caller supplies the expected logical length from the frame header;
	// a mismatch is corruption.
	Decode(dst, src []byte, logicalLen int) ([]byte, error)
}

// ---- registry -------------------------------------------------------

var (
	byName = map[string]Codec{}
	byID   = map[byte]Codec{}
)

// None is the identity codec (ID 0): payload == logical bytes.
var None Codec = noneCodec{}

func register(c Codec) {
	byName[c.Name()] = c
	byID[c.ID()] = c
}

func init() {
	register(None)
	register(deltaCodec{})
	register(lzCodec{})
}

// Lookup resolves a codec by name. The empty string means "none".
func Lookup(name string) (Codec, error) {
	if name == "" {
		return None, nil
	}
	if c, ok := byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, Names())
}

// ByID resolves a codec by its frame ID byte.
func ByID(id byte) (Codec, error) {
	if c, ok := byID[id]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: frame declares codec id %d", ErrCorrupt, id)
}

// Names lists the registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsNone reports whether c is absent or the identity codec.
func IsNone(c Codec) bool { return c == nil || c.ID() == 0 }

// ---- frame ----------------------------------------------------------

// Header is the parsed fixed-size prefix of one frame.
type Header struct {
	CodecID     byte
	LogicalLen  int
	PhysicalLen int
}

// FrameLen is the total on-disk size of the frame this header describes.
func (h Header) FrameLen() int { return FrameOverhead + h.PhysicalLen }

// AppendFrame encodes logical with c and appends one complete frame to
// dst, returning the extended slice.
func AppendFrame(dst []byte, c Codec, logical []byte) []byte {
	if c == nil {
		c = None
	}
	if len(logical) > MaxBlockLen {
		// Callers chunk well below this; guard anyway.
		panic("codec: block exceeds maximum frame size")
	}
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, c.ID(), 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(logical)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // physLen patched below
	dst = c.Encode(dst, logical)
	phys := len(dst) - start - HeaderSize
	binary.LittleEndian.PutUint32(dst[start+10:], uint32(phys))
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ParseHeader validates the fixed-size prefix of a frame. It does not
// verify the CRC (the payload may not be in b yet); DecodeFrame does.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: truncated frame header (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:4]) != magic {
		return Header{}, fmt.Errorf("%w: bad frame magic %q", ErrCorrupt, b[:4])
	}
	h := Header{
		CodecID:     b[4],
		LogicalLen:  int(binary.LittleEndian.Uint32(b[6:])),
		PhysicalLen: int(binary.LittleEndian.Uint32(b[10:])),
	}
	if _, err := ByID(h.CodecID); err != nil {
		return Header{}, err
	}
	return h, nil
}

// DecodeFrame verifies and decodes the frame at the start of b,
// appending the logical bytes to dst. It returns the extended dst and
// the total frame length consumed.
func DecodeFrame(dst, b []byte) ([]byte, int, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return dst, 0, err
	}
	n := h.FrameLen()
	if len(b) < n {
		return dst, 0, fmt.Errorf("%w: truncated frame (%d of %d bytes)", ErrCorrupt, len(b), n)
	}
	body := b[:HeaderSize+h.PhysicalLen]
	want := binary.LittleEndian.Uint32(b[HeaderSize+h.PhysicalLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return dst, 0, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	c, err := ByID(h.CodecID)
	if err != nil {
		return dst, 0, err
	}
	dst, err = c.Decode(dst, body[HeaderSize:], h.LogicalLen)
	if err != nil {
		return dst, 0, err
	}
	return dst, n, nil
}

// ---- none -----------------------------------------------------------

type noneCodec struct{}

func (noneCodec) Name() string { return "none" }
func (noneCodec) ID() byte     { return 0 }

func (noneCodec) Encode(dst, src []byte) []byte { return append(dst, src...) }

func (noneCodec) Decode(dst, src []byte, logicalLen int) ([]byte, error) {
	if len(src) != logicalLen {
		return dst, fmt.Errorf("%w: none payload %d bytes, logical %d", ErrCorrupt, len(src), logicalLen)
	}
	return append(dst, src...), nil
}

// ---- delta ----------------------------------------------------------

// deltaCodec targets the sorted fixed-width ID runs adjacency and
// VE-BLOCK fragments are made of: the block is viewed as a stream of
// little-endian uint32 words and stored as zigzag-varint deltas between
// consecutive words. Sorted neighbour runs collapse to one or two bytes
// per edge. A leading marker byte keeps arbitrary input safe: blocks
// whose length is not word-aligned, or where delta coding would grow
// the block, fall back to a raw copy.
type deltaCodec struct{}

const (
	deltaRaw   = 0 // payload[1:] is the logical block verbatim
	deltaWords = 1 // payload[1:] is zigzag-varint deltas of LE u32 words
)

func (deltaCodec) Name() string { return "delta" }
func (deltaCodec) ID() byte     { return 1 }

func (deltaCodec) Encode(dst, src []byte) []byte {
	if len(src)%4 != 0 || len(src) == 0 {
		return append(append(dst, deltaRaw), src...)
	}
	start := len(dst)
	dst = append(dst, deltaWords)
	var prev uint32
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		d := int64(w) - int64(prev)
		n := binary.PutVarint(tmp[:], d)
		dst = append(dst, tmp[:n]...)
		prev = w
		if len(dst)-start > len(src) {
			// Growing: abandon and store raw.
			return append(append(dst[:start], deltaRaw), src...)
		}
	}
	return dst
}

func (deltaCodec) Decode(dst, src []byte, logicalLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, fmt.Errorf("%w: empty delta payload", ErrCorrupt)
	}
	switch src[0] {
	case deltaRaw:
		if len(src)-1 != logicalLen {
			return dst, fmt.Errorf("%w: raw delta payload %d bytes, logical %d", ErrCorrupt, len(src)-1, logicalLen)
		}
		return append(dst, src[1:]...), nil
	case deltaWords:
		if logicalLen%4 != 0 {
			return dst, fmt.Errorf("%w: delta-coded block with unaligned logical length %d", ErrCorrupt, logicalLen)
		}
		body := src[1:]
		var prev uint32
		got := 0
		for got < logicalLen {
			d, n := binary.Varint(body)
			if n <= 0 {
				return dst, fmt.Errorf("%w: bad varint in delta block", ErrCorrupt)
			}
			body = body[n:]
			w := uint32(int64(prev) + d)
			dst = binary.LittleEndian.AppendUint32(dst, w)
			prev = w
			got += 4
		}
		if len(body) != 0 {
			return dst, fmt.Errorf("%w: %d trailing bytes in delta block", ErrCorrupt, len(body))
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("%w: unknown delta marker %d", ErrCorrupt, src[0])
	}
}

// ---- lz -------------------------------------------------------------

// lzCodec is the general byte codec: DEFLATE with a raw-copy fallback
// when compression does not pay, marker byte as in deltaCodec. It encodes
// with this package's whole-frame deflater (deflate.go) and decodes with
// its whole-frame inflater (inflate.go), which accepts exactly the streams
// compress/flate's reader yields the logical length from, whatever wrote
// them.
type lzCodec struct{}

const (
	lzRaw   = 0
	lzFlate = 1
)

func (lzCodec) Name() string { return "lz" }
func (lzCodec) ID() byte     { return 2 }

// maxInflateRatio bounds the bytes a DEFLATE stream yields per byte: a
// 258-byte match costs at least two bits.
const maxInflateRatio = 1032

func (lzCodec) Encode(dst, src []byte) []byte {
	if len(src) == 0 {
		return append(dst, lzRaw)
	}
	start := len(dst)
	dst = deflateFrame(append(dst, lzFlate), src)
	if len(dst)-start-1 >= len(src) {
		return append(append(dst[:start], lzRaw), src...)
	}
	return dst
}

func (lzCodec) Decode(dst, src []byte, logicalLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, fmt.Errorf("%w: empty lz payload", ErrCorrupt)
	}
	switch src[0] {
	case lzRaw:
		if len(src)-1 != logicalLen {
			return dst, fmt.Errorf("%w: raw lz payload %d bytes, logical %d", ErrCorrupt, len(src)-1, logicalLen)
		}
		return append(dst, src[1:]...), nil
	case lzFlate:
		// Refuse a length no stream of this size yields before allocating it.
		if logicalLen > maxInflateRatio*(len(src)-1) {
			return dst, fmt.Errorf("%w: %d-byte flate stream cannot yield logical length %d", ErrCorrupt, len(src)-1, logicalLen)
		}
		dst = slices.Grow(dst, logicalLen)
		out := dst[len(dst) : len(dst)+logicalLen]
		if n := inflate(out, src[1:]); n != logicalLen {
			if n > logicalLen {
				return dst, fmt.Errorf("%w: flate stream longer than logical length %d", ErrCorrupt, logicalLen)
			}
			return dst, fmt.Errorf("%w: flate stream yields %d of logical length %d", ErrCorrupt, n, logicalLen)
		}
		return dst[:len(dst)+logicalLen], nil
	default:
		return dst, fmt.Errorf("%w: unknown lz marker %d", ErrCorrupt, src[0])
	}
}
