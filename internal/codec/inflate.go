package codec

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// A whole-frame DEFLATE (RFC 1951) decoder for lzCodec. A frame's payload
// is one complete stream and its logical length is known before decoding
// starts, so the decoder works on slices: the stream is read through a
// 64-bit bit buffer refilled eight bytes at a time, and every match is
// copied from the output already written — the output is the window, and
// no ring buffer or io.Reader sits between the two.
//
// It accepts exactly what compress/flate's reader does when read through
// io.ReadFull for the logical length and then probed for one more byte:
// the stream must yield exactly that many bytes before it ends, or before
// it fails. The bytes decoded before a failure count, as the reader
// delivers them before it reports the error. Two details of that reader
// decide where a truncated stream fails, and the decoder copies both:
//
//   - A literal/length symbol of a dynamic block is only looked up once
//     max(shortest code, end-of-block code) bits are at hand, so a stream
//     whose last symbol is shorter than the end-of-block code fails before
//     that symbol (compress/flate raises the table's minimum in
//     readHuffman).
//   - A stored block drops the bits left in the current byte only; whole
//     bytes the bit buffer already holds are read again as the block's
//     header.
//
// Codes are checked as compress/flate checks them: a code must be
// complete, or empty, or a single one-bit code, whose unused pattern
// fails when it is read.

// Table geometry. A table entry is
//
//	bits 0-3    code length; 0 where no code starts
//	bits 4-7    extra bits after the code, or a link's subtable index bits
//	bits 8-11   kind: a literal, distance or code-length symbol has none
//	bits 16-31  literal, base length or distance, or subtable offset
//
// A link's subtable entries carry the full code length. A code that
// shares its first primary bits with a longer one lives in a subtable
// sized by the longest code under that prefix; such a subtree holds at
// least depth+1 codes, so the tables below need at most 286×32/6 and
// 30×128/8 subtable entries.
const (
	litBits  = 10
	distBits = 8
	clBits   = 7 // code-length codes are at most 7 bits

	litTableLen  = 1<<litBits + 1536
	distTableLen = 1<<distBits + 512

	flagLen  = 1 << 8  // a length code: value is the base length
	flagEOB  = 1 << 9  // end of block
	flagBad  = 1 << 10 // no symbol, or one the block may not use
	flagLink = 1 << 11 // value is the subtable offset
	kindMask = flagLen | flagEOB | flagBad | flagLink

	numLit  = 286 // literal/length codes a dynamic block may declare
	numDist = 30  // distance codes a dynamic block may declare
)

type (
	litTable  [litTableLen]uint32
	distTable [distTableLen]uint32
)

// codeOrder is the order in which a dynamic header lists the lengths of
// the code-length code.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// litInfo, distInfo and clInfo hold each symbol's entry minus its code
// length; fixedLit and fixedDist are the tables of a fixed-code block.
// The fixed distance code is complete with all 32 five-bit codes, of
// which 30 and 31 are flagged bad.
var (
	litInfo   [288]uint32
	distInfo  [32]uint32
	clInfo    [19]uint32
	fixedLit  litTable
	fixedDist distTable
)

func init() {
	for s := range 256 {
		litInfo[s] = uint32(s) << 16
	}
	litInfo[256] = flagEOB
	for s := 257; s < 286; s++ {
		base, extra := 3+s-257, 0
		if s >= 265 && s < 285 {
			extra = (s - 261) / 4
			base = 3 + (4+(s-261)%4)<<extra
		} else if s == 285 {
			base = 258
		}
		litInfo[s] = uint32(base)<<16 | uint32(extra)<<4 | flagLen
	}
	litInfo[286], litInfo[287] = flagBad, flagBad
	for s := range numDist {
		base, extra := s+1, 0
		if s >= 4 {
			extra = (s - 2) / 2
			base = 1 + (2+s%2)<<extra
		}
		distInfo[s] = uint32(base)<<16 | uint32(extra)<<4
	}
	distInfo[30], distInfo[31] = flagBad, flagBad
	for s := range clInfo {
		clInfo[s] = uint32(s) << 16
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	_, okLit := build(fixedLit[:], litBits, lens[:], litInfo[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	_, okDist := build(fixedDist[:], distBits, lens[:32], distInfo[:])
	if !okLit || !okDist {
		panic("codec: fixed DEFLATE codes are incomplete")
	}
}

// build fills t with the lookup table of the canonical code whose code
// lengths are lens, primary bits wide, each entry carrying info[symbol].
// It returns the shortest code length and whether compress/flate accepts
// the code: complete, empty, or a single one-bit code. An empty code, and
// the unused pattern of a one-bit code, read as bad entries.
func build(t []uint32, primary uint, lens []uint8, info []uint32) (minLen uint, ok bool) {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	lo, hi := uint(0), uint(0)
	for l := uint(1); l < 16; l++ {
		if count[l] != 0 {
			if lo == 0 {
				lo = l
			}
			hi = l
		}
	}
	if hi == 0 {
		fill(t[:1<<primary], flagBad)
		return 0, true
	}
	var next [16]int
	code := 0
	for l := lo; l <= hi; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if code != 1<<hi {
		if code != 1 || hi != 1 {
			return 0, false
		}
		fill(t[:1<<primary], flagBad)
	}

	// Symbols in canonical order (by length, then symbol) with their codes:
	// codes under one primary prefix are adjacent, longest last.
	var sorted [288]uint16
	var codes [288]uint16
	var at [16]int
	for l := lo + 1; l <= hi; l++ {
		at[l] = at[l-1] + count[l-1]
	}
	for s, l := range lens {
		if l != 0 {
			sorted[at[l]] = uint16(s)
			codes[at[l]] = uint16(next[l])
			at[l]++
			next[l]++
		}
	}
	n := at[hi]
	short := n
	if hi > primary {
		short = at[primary]
	}
	for i := range short {
		s := sorted[i]
		l := uint(lens[s])
		e := info[s] | uint32(l)
		for j := reverse(uint(codes[i]), l); j < 1<<primary; j += 1 << l {
			t[j] = e
		}
	}
	// Longest first, so a prefix's first code sizes its subtable.
	off, prefix := uint(1)<<primary, ^uint(0)
	var sub, subBits uint
	for i := n - 1; i >= short; i-- {
		s := sorted[i]
		l := uint(lens[s])
		c := uint(codes[i])
		if p := c >> (l - primary); p != prefix {
			prefix, sub, subBits = p, off, l-primary
			off += 1 << subBits
			t[reverse(p, primary)] = uint32(sub)<<16 | uint32(subBits)<<4 | flagLink
		}
		e := info[s] | uint32(l)
		for j := reverse(c, l) >> primary; j < 1<<subBits; j += 1 << (l - primary) {
			t[sub+j] = e
		}
	}
	return lo, true
}

func fill(t []uint32, e uint32) {
	for i := range t {
		t[i] = e
	}
}

// reverse returns the low n bits of c in reverse order: DEFLATE sends a
// code's most significant bit first into a least-significant-first stream.
func reverse(c, n uint) uint { return uint(bits.Reverse16(uint16(c))) >> (16 - n) }

// inflater decodes one stream at a time; it is pooled for its tables.
type inflater struct {
	in  []byte
	pos int    // next byte of in to load; past len(in), the zero bytes that pad the end
	b   uint64 // bit buffer, next bit lowest
	nb  uint   // bits in b

	lit  litTable
	dist distTable
	cl   [1 << clBits]uint32
	lens [numLit + numDist]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the DEFLATE stream in into out and returns how many
// bytes the stream yields before it ends or fails; len(out)+1 stands for
// any count beyond len(out). The stream is accepted iff that is len(out).
func inflate(out, in []byte) int {
	f := inflaters.Get().(*inflater)
	n := f.decode(out, in)
	f.in = nil
	inflaters.Put(f)
	return n
}

func (f *inflater) decode(out, in []byte) int {
	f.in, f.pos, f.b, f.nb = in, 0, 0, 0
	o := 0
	for {
		h, ok := f.take(3)
		if !ok {
			return o
		}
		var more bool // block type 3 is reserved
		switch h >> 1 {
		case 0:
			o, more = f.stored(out, o)
		case 1:
			o, more = f.huffman(out, o, &fixedLit, &fixedDist, 0)
		case 2:
			var litMin uint
			if litMin, more = f.dynamic(); more {
				o, more = f.huffman(out, o, &f.lit, &f.dist, litMin)
			}
		}
		if !more || h&1 != 0 {
			return o
		}
	}
}

// refill tops the bit buffer up to at least 56 bits, with zero bytes
// once the stream runs out.
func (f *inflater) refill() {
	if f.nb >= 56 {
		return
	}
	if f.pos+8 <= len(f.in) {
		f.b |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nb
		f.pos += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for f.nb <= 56 {
		if f.pos < len(f.in) {
			f.b |= uint64(f.in[f.pos]) << f.nb
		}
		f.pos++
		f.nb += 8
	}
}

// avail is how many of the buffered bits come from the stream.
func (f *inflater) avail() int {
	if f.pos <= len(f.in) {
		return int(f.nb)
	}
	return int(f.nb) - 8*(f.pos-len(f.in))
}

// take reads an n-bit field, n ≤ 32, reporting false if the stream
// holds fewer bits.
func (f *inflater) take(n uint) (uint32, bool) {
	f.refill()
	if f.avail() < int(n) {
		return 0, false
	}
	return f.bits(n), true
}

// bits consumes the next n buffered bits.
func (f *inflater) bits(n uint) uint32 {
	v := uint32(f.b & (1<<n - 1))
	f.b >>= n
	f.nb -= n
	return v
}

// symbol consumes the code at the head of the bit buffer and returns its
// entry in t, a table primary bits wide.
func (f *inflater) symbol(t []uint32, primary uint) uint32 {
	e := t[f.b&(1<<primary-1)]
	if e&flagLink != 0 {
		e = t[e>>16+uint32(f.b>>primary)&(1<<(e>>4&15)-1)]
	}
	f.bits(uint(e & 15))
	return e
}

// dynamic reads a dynamic block's header into f.lit and f.dist and
// returns the bits a literal/length lookup needs at hand.
func (f *inflater) dynamic() (litMin uint, ok bool) {
	h, ok := f.take(14)
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if !ok || nlit > numLit || ndist > numDist {
		return 0, false
	}
	var clLens [19]uint8
	for _, s := range codeOrder[:nclen] {
		v, ok := f.take(3)
		if !ok {
			return 0, false
		}
		clLens[s] = uint8(v)
	}
	if _, ok := build(f.cl[:], clBits, clLens[:], clInfo[:]); !ok {
		return 0, false
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		f.refill()
		e := f.symbol(f.cl[:], clBits)
		if e&flagBad != 0 || f.avail() < 0 {
			return 0, false
		}
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep, val uint8
		var v uint32
		switch sym {
		case 16:
			if i == 0 {
				return 0, false
			}
			v, ok = f.take(2)
			rep, val = 3+uint8(v), lens[i-1]
		case 17:
			v, ok = f.take(3)
			rep = 3 + uint8(v)
		default:
			v, ok = f.take(7)
			rep = 11 + uint8(v)
		}
		if !ok || i+int(rep) > len(lens) {
			return 0, false
		}
		for range rep {
			lens[i] = val
			i++
		}
	}
	litMin, okLit := build(f.lit[:], litBits, lens[:nlit], litInfo[:])
	_, okDist := build(f.dist[:], distBits, lens[nlit:], distInfo[:])
	return max(litMin, uint(lens[256])), okLit && okDist
}

// stored copies a stored block. The bits left in the current byte are
// dropped; whole bytes already in the bit buffer are read again.
func (f *inflater) stored(out []byte, o int) (int, bool) {
	p := f.pos - int(f.nb>>3)
	f.b, f.nb = 0, 0
	in := f.in
	if p+4 > len(in) {
		return o, false
	}
	n := int(binary.LittleEndian.Uint16(in[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(in[p+2:]) {
		return o, false
	}
	p += 4
	got := min(n, len(in)-p)
	if o+got > len(out) {
		return len(out) + 1, false
	}
	o += copy(out[o:], in[p:p+got])
	f.pos = p + got
	return o, got == n
}

// huffman decodes one Huffman-coded block into out from o, returning the
// new output length and whether the block ended with its end-of-block
// code. litMin is the number of bits a literal/length lookup needs at
// hand; a fixed-code block passes 0, as none of its codes is shorter than
// its end-of-block code.
//
// Most of a block runs in a fast loop that needs no checks against the
// ends of in and out: it runs while eight bytes of in remain to load, so
// every buffered bit is real, and while a match and its word-sized
// overrun fit in out. The careful loop after it checks both, and it
// decodes whatever the fast loop leaves: the end of the block, a code
// that fails, the last bytes of either slice.
func (f *inflater) huffman(out []byte, o int, lt *litTable, dt *distTable, litMin uint) (int, bool) {
	in, pos, b, nb := f.in, f.pos, f.b, f.nb
	for pos+8 <= len(in) && o+258+8 <= len(out) {
		// A refill leaves at least 56 bits: two literals, or the 48 bits of
		// the longest length and distance.
		b |= binary.LittleEndian.Uint64(in[pos:]) << nb
		pos += int(63-nb) >> 3
		nb |= 56
		e := lt[b&(1<<litBits-1)]
		if e&flagLink != 0 {
			e = lt[e>>16+uint32(b>>litBits)&(1<<(e>>4&15)-1)]
		}
		if e&kindMask == 0 {
			n := uint(e & 15)
			b >>= n
			nb -= n
			out[o] = byte(e >> 16)
			o++
			e = lt[b&(1<<litBits-1)]
			if e&flagLink != 0 {
				e = lt[e>>16+uint32(b>>litBits)&(1<<(e>>4&15)-1)]
			}
			if e&kindMask == 0 {
				n := uint(e & 15)
				b >>= n
				nb -= n
				out[o] = byte(e >> 16)
				o++
			}
			continue
		}
		if e&kindMask != flagLen {
			break
		}
		bb, n := b>>(e&15), uint(e&15)
		x := uint(e >> 4 & 15)
		length := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		n += x
		d := dt[bb&(1<<distBits-1)]
		if d&flagLink != 0 {
			d = dt[d>>16+uint32(bb>>distBits)&(1<<(d>>4&15)-1)]
		}
		dn, dx := uint(d&15), uint(d>>4&15)
		dist := int(d>>16) + int(bb>>dn&(1<<dx-1))
		if d&flagBad != 0 || dist > o {
			break
		}
		b = bb >> (dn + dx)
		nb -= n + dn + dx
		if dist >= 8 {
			// Words, each read wholly before it is written; the last may
			// overrun the match, into bytes later symbols write.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[o+i:], binary.LittleEndian.Uint64(out[o-dist+i:]))
			}
		} else {
			copyMatch(out, o, o+length, dist)
		}
		o += length
	}
	f.b, f.nb, f.pos = b, nb, pos
	for {
		// One symbol group takes at most 15+5+15+13 = 48 bits. Every
		// failure below ends the stream before the group writes anything,
		// so the order of the checks does not matter.
		f.refill()
		if f.avail() < int(litMin) {
			return o, false
		}
		e := f.symbol(lt[:], litBits)
		kind := e & kindMask
		var length, dist int
		if kind == flagLen {
			length = int(e>>16) + int(f.bits(uint(e>>4&15)))
			d := f.symbol(dt[:], distBits)
			if d&flagBad != 0 {
				return o, false
			}
			dist = int(d>>16) + int(f.bits(uint(d>>4&15)))
		}
		switch {
		case kind == flagBad || f.avail() < 0 || dist > o:
			return o, false
		case kind == flagEOB:
			return o, true
		case kind == 0:
			if o >= len(out) {
				return len(out) + 1, false
			}
			out[o] = byte(e >> 16)
			o++
		case o+length > len(out):
			return len(out) + 1, false
		default:
			copyMatch(out, o, o+length, dist)
			o += length
		}
	}
}

// copyMatch copies out[o-dist:] to out[o:end], overlapping when dist is
// shorter than the match: the copy then repeats with period dist.
func copyMatch(out []byte, o, end, dist int) {
	k := copy(out[o:end], out[o-dist:o])
	for o+k < end {
		k += copy(out[o+k:end], out[o:o+k])
	}
}
