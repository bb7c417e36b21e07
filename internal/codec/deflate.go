package codec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"hybridgraph/internal/freelist"
)

// A whole-frame DEFLATE (RFC 1951) encoder for lzCodec, the write-side
// twin of inflate.go. A frame's logical bytes are all in memory when it
// is encoded, so the encoder works on slices and in two passes per block:
// the matcher turns the input into tokens while it counts symbol
// frequencies, then the block is written with codes built for exactly
// those frequencies, straight onto dst through a 64-bit bit buffer.
//
// Matching is greedy, with one probe of a hash of the next four bytes
// (the class of compress/flate's BestSpeed): a 14-bit table of the last
// position each hash was seen at, minimum match 4, and Snappy's skipping,
// which probes further apart the longer a stretch goes without a match.
// Each block is one dynamic-Huffman block; a frame is one block unless its
// input is longer than blockLen, which bounds the token buffer. Matches
// reach back across block boundaries within the one input.
//
// Code lengths come from Moffat and Katajainen's in-place algorithm over
// the used symbols, sorted as packed freq<<16|symbol keys, and are limited
// to 15 bits (7 for the code-length code) by the Kraft fix-up miniz uses.
// Every code has at least two symbols, so every code is complete.

const (
	hashBits    = 14
	minMatch    = 4
	maxMatch    = 258
	maxDistance = 1 << 15
	// inputMargin keeps the matcher's loads inside the input: it reads up
	// to eight bytes from one before the position it matches at.
	inputMargin = 15
	blockLen    = ChunkSize // input bytes after which a block closes
	maxCodeBits = 15
	maxCLBits   = 7 // a code-length code's lengths are sent in 3 bits
)

// lenSym is the length symbol, less 257, of each match length less 3.
// clExtra is the extra bits a code-length symbol carries.
var (
	lenSym  [256]uint8
	clExtra = [32]uint8{16: 2, 17: 3, 18: 7}
)

func init() {
	for s := 257; s < numLit; s++ {
		base, extra := lengthCode(s)
		for i := base - 3; i < min(base-3+1<<extra, len(lenSym)); i++ {
			lenSym[i] = uint8(s - 257) // 285 overwrites 284's last, length 258
		}
	}
}

// distCode returns the distance code of distance d+1 and its extra bits.
func distCode(d uint32) (code, extra uint32) {
	if d < 4 {
		return d, 0
	}
	nb := uint32(bits.Len32(d)) - 1
	return 2*nb + d>>(nb-1)&1, nb - 1
}

// A token is a match and the literals before it: lits input bytes sent
// as literals, then the match, packed as its length less 3 (bits 0-7),
// its distance code (bits 8-12) and the distance's extra bits (13-25).
type token struct{ lits, m uint32 }

// encoder holds what one stream is built in. Only its hash table carries
// over from one stream to the next: entries of earlier streams lie below
// base and are never matched, so a stream's bytes depend on its input
// alone.
type encoder struct {
	table [1 << hashBits]int32 // position+base each hash was last seen at
	base  int32

	toks     []token
	tail     int // literals after the last token
	extra    int // extra bits of the block's matches
	litFreq  [numLit]uint32
	distFreq [numDist]uint32
	clFreq   [19]uint32

	litLens  [numLit]uint8
	distLens [numDist]uint8
	clLens   [19]uint8
	seq      [numLit + numDist]uint8  // the block's code lengths, in the order they are sent
	cl       [numLit + numDist]uint16 // seq as code-length symbols, extra bits above bit 5

	// Codes, bit-reversed for the LSB-first stream, above their lengths
	// in the low 8 bits. lenCodes holds each match length's code with its
	// extra bits.
	litCodes  [numLit]uint32
	distCodes [32]uint32
	clCodes   [32]uint32
	lenCodes  [256]uint32

	keys [numLit]uint64 // code construction
	work [numLit]uint32

	acc uint64 // bits not yet written, next bit lowest
	nb  uint
}

// encoders caps at 8 idle encoders (about 100 KiB each): more than a
// job's workers encode at once.
var encoders = freelist.New[encoder](8)

// deflateFrame appends the DEFLATE stream of src, which is not empty, to
// dst.
func deflateFrame(dst, src []byte) []byte {
	e := encoders.Get()
	dst = e.encode(dst, src)
	encoders.Put(e)
	return dst
}

func (e *encoder) encode(dst, src []byte) []byte {
	if e.base == 0 || len(src) > math.MaxInt32-int(e.base) {
		clear(e.table[:])
		e.base = 1
	}
	e.acc, e.nb = 0, 0
	for start := 0; start < len(src); {
		stop := e.match(src, start, min(start+blockLen, len(src)))
		dst = e.writeBlock(dst, src, start, stop == len(src))
		start = stop
	}
	e.base += int32(len(src))
	return dst
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash4(u uint32) uint32 { return u * 0x1e35a7bd >> (32 - hashBits) }

// match tokenizes src from start, counting the symbols it will take, and
// returns where the block ends: at end, or past it where its last match
// does, or at the end of src.
func (e *encoder) match(src []byte, start, end int) int {
	e.toks = e.toks[:0]
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.extra = 0
	limit := min(end, len(src)-inputMargin)
	s, emit := start, start
	if s >= limit {
		return e.finish(src, emit, end)
	}
	t, base := &e.table, e.base
	next := load32(src, s)
	for {
		// Probe one position after another, each skip/32 bytes on from
		// the last, until the four bytes there were seen within reach.
		skip, ns := 32, s
		var cand int
		for {
			s = ns
			cur := next
			ns = s + skip>>5
			skip += skip >> 5
			if ns > limit {
				return e.finish(src, emit, end)
			}
			h := hash4(cur)
			cand = int(t[h] - base)
			t[h] = int32(s) + base
			next = load32(src, ns)
			if cand >= 0 && s-cand <= maxDistance && cur == load32(src, cand) {
				break
			}
		}
		for _, b := range src[emit:s] {
			e.litFreq[b]++
		}
		// Emit the match, and another at once while the bytes it ends at
		// match too.
		for {
			l := minMatch + matchLen(src[s+minMatch:min(s+maxMatch, len(src))], src[cand+minMatch:])
			e.addMatch(s-emit, l, s-cand)
			s += l
			emit = s
			if s >= limit {
				return e.finish(src, emit, end)
			}
			x := binary.LittleEndian.Uint64(src[s-1:])
			t[hash4(uint32(x))] = int32(s-1) + base
			h := hash4(uint32(x >> 8))
			cand = int(t[h] - base)
			t[h] = int32(s) + base
			if cand < 0 || s-cand > maxDistance || uint32(x>>8) != load32(src, cand) {
				next = uint32(x >> 16)
				s++
				break
			}
		}
	}
}

// finish closes the block's tokens with the literals from emit to end,
// if any, and returns where the block ends.
func (e *encoder) finish(src []byte, emit, end int) int {
	stop := max(emit, end)
	e.tail = stop - emit
	for _, b := range src[emit:stop] {
		e.litFreq[b]++
	}
	return stop
}

// matchLen returns how many leading bytes of a and b agree; b is at least
// as long as a.
func matchLen(a, b []byte) int {
	b = b[:len(a)]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

func (e *encoder) addMatch(lits, length, dist int) {
	li := uint32(length - 3)
	d := uint32(dist - 1)
	dc, dx := distCode(d)
	ls := 257 + int(lenSym[li])
	e.litFreq[ls]++
	e.distFreq[dc]++
	e.extra += int(litInfo[ls]>>4&15 + dx)
	e.toks = append(e.toks, token{uint32(lits), li | dc<<8 | (d&(1<<dx-1))<<13})
}

// writeBlock appends the block of src from start, as match tokenized it,
// to dst.
func (e *encoder) writeBlock(dst, src []byte, start int, final bool) []byte {
	e.litFreq[256] = 1 // end of block
	e.huffLengths(e.litLens[:], e.litFreq[:], maxCodeBits)
	e.huffLengths(e.distLens[:], e.distFreq[:], maxCodeBits)
	nlit, ndist := numLit, numDist
	for e.litLens[nlit-1] == 0 {
		nlit--
	}
	for e.distLens[ndist-1] == 0 {
		ndist--
	}
	seq := e.seq[:nlit+ndist]
	copy(seq, e.litLens[:nlit])
	copy(seq[nlit:], e.distLens[:ndist])
	cl := e.rle(seq)
	e.huffLengths(e.clLens[:], e.clFreq[:], maxCLBits)
	nclen := len(codeOrder)
	for nclen > 4 && e.clLens[codeOrder[nclen-1]] == 0 {
		nclen--
	}
	assignCodes(e.litCodes[:], e.litLens[:])
	assignCodes(e.distCodes[:numDist], e.distLens[:])
	assignCodes(e.clCodes[:19], e.clLens[:])
	for li := range e.lenCodes {
		s := 257 + int(lenSym[li])
		c, x := e.litCodes[s], litInfo[s]>>4&15
		ev := uint32(li) + 3 - litInfo[s]>>16
		e.lenCodes[li] = (c>>8|ev<<(c&255))<<8 | (c&255 + x)
	}

	// The block's exact size, so dst grows once.
	nbits := 3 + 14 + 3*nclen + e.extra
	for s, f := range e.litFreq {
		nbits += int(f) * int(e.litLens[s])
	}
	for s, f := range e.distFreq {
		nbits += int(f) * int(e.distLens[s])
	}
	for s, f := range e.clFreq {
		nbits += int(f) * int(e.clLens[s]+clExtra[s])
	}

	acc, n := e.acc, e.nb
	o := len(dst)
	want := o*8 + int(n) + nbits
	dst = slices.Grow(dst, (int(n)+nbits+7)/8+8)
	out := dst[:cap(dst)]
	var bfinal uint64
	if final {
		bfinal = 1
	}
	acc |= (bfinal | 2<<1 | uint64(nlit-257)<<3 | uint64(ndist-1)<<8 | uint64(nclen-4)<<13) << n
	n += 17
	o, acc, n = putBits(out, o, acc, n)
	for _, s := range codeOrder[:nclen] {
		acc |= uint64(e.clLens[s]) << n
		n += 3
		if n >= 48 {
			o, acc, n = putBits(out, o, acc, n)
		}
	}
	for _, c := range cl {
		code := e.clCodes[c&31]
		acc |= uint64(code>>8|uint32(c>>5)<<(code&255)) << n
		n += uint(code&255) + uint(clExtra[c&31])
		if n >= 48 {
			o, acc, n = putBits(out, o, acc, n)
		}
	}

	// A literal or the end-of-block code takes at most 15 bits, so one is
	// added only while n < 48. A match takes at most 48: a length code and
	// its 5 extra bits, then a distance code and its 13. It is added at
	// n <= 16 and flushed after if it leaves n >= 48, so acc never holds
	// more than 64 bits.
	lc := &e.litCodes
	p := start
	for _, tk := range e.toks {
		for _, b := range src[p : p+int(tk.lits)] {
			c := lc[b]
			acc |= uint64(c>>8) << n
			n += uint(c & 255)
			if n >= 48 {
				o, acc, n = putBits(out, o, acc, n)
			}
		}
		if n > 16 {
			o, acc, n = putBits(out, o, acc, n)
		}
		lcode := e.lenCodes[tk.m&255]
		acc |= uint64(lcode>>8) << n
		n += uint(lcode & 255)
		dc := tk.m >> 8 & 31
		dcode := e.distCodes[dc]
		acc |= uint64(dcode>>8|tk.m>>13<<(dcode&255)) << n
		n += uint(dcode&255) + uint(distInfo[dc]>>4&15)
		if n >= 48 {
			o, acc, n = putBits(out, o, acc, n)
		}
		p += int(tk.lits) + int(tk.m&255) + 3
	}
	for _, b := range src[p : p+e.tail] {
		c := lc[b]
		acc |= uint64(c>>8) << n
		n += uint(c & 255)
		if n >= 48 {
			o, acc, n = putBits(out, o, acc, n)
		}
	}
	c := lc[256]
	acc |= uint64(c>>8) << n
	n += uint(c & 255)
	o, acc, n = putBits(out, o, acc, n)
	if o*8+int(n) != want {
		panic("codec: deflate block size miscounted")
	}
	if final && n > 0 {
		out[o] = byte(acc)
		o++
		acc, n = 0, 0
	}
	e.acc, e.nb = acc, n
	return out[:o]
}

// putBits writes the whole bytes of the n-bit buffer acc at out[o:] and
// returns the new end and what is left of acc: fewer than 8 bits.
func putBits(out []byte, o int, acc uint64, n uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[o:], acc)
	k := n >> 3
	return o + int(k), acc >> (k << 3), n & 7
}

// huffLengths sets lens[s] to the length of symbol s's code in a Huffman
// code for freq whose codes are at most maxBits long, 0 for an unused
// symbol. At least two symbols get a code, unused ones if need be, so the
// code is complete.
func (e *encoder) huffLengths(lens []uint8, freq []uint32, maxBits int) {
	clear(lens)
	keys := e.keys[:0]
	for s, f := range freq {
		if f != 0 {
			keys = append(keys, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(keys) < 2; s++ {
		if freq[s] == 0 {
			keys = append(keys, uint64(s))
		}
	}
	slices.Sort(keys)

	// Moffat and Katajainen, "In-place calculation of minimum-redundancy
	// codes": w holds the sorted weights, then the internal nodes' weights
	// and parent pointers, then their depths, then the leaves' depths,
	// deepest first.
	n := len(keys)
	w := e.work[:n]
	for i, k := range keys {
		w[i] = uint32(k >> 16)
	}
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= n || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && w[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			w[next] = depth
			next--
		}
		avail, used = 2*used, 0
		depth++
	}

	// Limit the lengths as miniz does: fold every longer code into
	// maxBits, then lengthen shorter codes one at a time until the Kraft
	// sum is exactly 1 again.
	var count [33]int
	for _, d := range w {
		count[min(d, 32)]++
	}
	for l := maxBits + 1; l < len(count); l++ {
		count[maxBits] += count[l]
	}
	total := 0
	for l := maxBits; l > 0; l-- {
		total += count[l] << (maxBits - l)
	}
	for ; total != 1<<maxBits; total-- {
		count[maxBits]--
		for l := maxBits - 1; l > 0; l-- {
			if count[l] != 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// The most frequent symbols get the shortest codes.
	for l := 1; l <= maxBits; l++ {
		for ; count[l] > 0; count[l]-- {
			n--
			lens[keys[n]&0xffff] = uint8(l)
		}
	}
}

// assignCodes sets codes[s] to symbol s's canonical code, bit-reversed,
// above its length lens[s].
func assignCodes(codes []uint32, lens []uint8) {
	var count, next [16]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		codes[s] = 0
		if l != 0 {
			codes[s] = uint32(reverse(uint(next[l]), uint(l)))<<8 | uint32(l)
			next[l]++
		}
	}
}

// rle returns seq as code-length symbols, each with its repeat count's
// extra bits above bit 5, and counts them in e.clFreq.
func (e *encoder) rle(seq []uint8) []uint16 {
	cl := e.cl[:0]
	for i := 0; i < len(seq); {
		l := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				cl = append(cl, 18|uint16(min(run, 138)-11)<<5)
			}
			if run >= 3 {
				cl = append(cl, 17|uint16(run-3)<<5)
				run = 0
			}
		} else {
			cl = append(cl, uint16(l))
			for run--; run >= 3; run -= min(run, 6) {
				cl = append(cl, 16|uint16(min(run, 6)-3)<<5)
			}
		}
		for ; run > 0; run-- {
			cl = append(cl, uint16(l))
		}
	}
	clear(e.clFreq[:])
	for _, c := range cl {
		e.clFreq[c&31]++
	}
	return cl
}
