package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// flateDecs and flateDecode are lzCodec.Decode's flate branch as it was
// before the package decoded DEFLATE itself: compress/flate's streaming
// reader, read for exactly logicalLen bytes and then probed for one more.
// They are the oracle inflate is held to.
var flateDecs = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}

func flateDecode(dst, stream []byte, logicalLen int) ([]byte, error) {
	zr := flateDecs.Get().(io.ReadCloser)
	defer flateDecs.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(stream), nil); err != nil {
		return dst, fmt.Errorf("%w: flate decode: %v", ErrCorrupt, err)
	}
	dst = slices.Grow(dst, logicalLen)
	out := dst[len(dst) : len(dst)+logicalLen]
	if _, err := io.ReadFull(zr, out); err != nil {
		return dst, fmt.Errorf("%w: flate decode: %v", ErrCorrupt, err)
	}
	// Exactly logicalLen bytes, then EOF.
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return dst, fmt.Errorf("%w: flate stream longer than logical length %d", ErrCorrupt, logicalLen)
	}
	return dst[:len(dst)+logicalLen], nil
}

// flateYield is what compress/flate's reader delivers from stream before
// it ends or fails, cut at limit bytes.
func flateYield(stream []byte, limit int) []byte {
	out, _ := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(stream)), int64(limit)))
	return out
}

// deflate compresses b at level, with a sync flush (an empty stored block
// after a Huffman block) halfway when flush is set.
func deflate(t testing.TB, b []byte, level int, flush bool) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	half := len(b) / 2
	if !flush {
		half = len(b)
	}
	if _, err := zw.Write(b[:half]); err != nil {
		t.Fatal(err)
	}
	if flush {
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := zw.Write(b[half:]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// levels are the compress/flate levels whose streams the tests and
// fuzz seeds cover: every block type its encoder emits.
var levels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

// bitWriter writes a DEFLATE bit stream, least significant bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes Huffman code c of length l, most significant bit first.
func (w *bitWriter) code(c uint, l uint8) { w.bits(uint64(reverse(c, uint(l))), uint(l)) }

// align pads to a byte boundary with zero bits.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

func (w *bitWriter) bytes() []byte {
	w.align()
	return w.out
}

// canonical assigns the canonical code of each symbol with lengths lens.
func canonical(lens []uint8) []uint {
	var count, next [16]uint
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// fixedLitCode is a symbol's code in a fixed-code block (RFC 1951 3.2.6).
func fixedLitCode(s int) (uint, uint8) {
	switch {
	case s < 144:
		return uint(0x30 + s), 8
	case s < 256:
		return uint(0x190 + s - 144), 9
	case s < 280:
		return uint(s - 256), 7
	default:
		return uint(0xc0 + s - 280), 8
	}
}

// fixedMatch writes a fixed-code block, final if final is set: literal
// 'a', then a three-byte match with distance symbol distSym, then the
// end-of-block code.
func fixedMatch(w *bitWriter, distSym uint, final bool) {
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(1, 2)
	w.code(fixedLitCode('a'))
	w.code(fixedLitCode(257))
	w.code(distSym, 5)
	if distSym >= 4 {
		w.bits(0, (distSym-2)/2)
	}
	w.code(fixedLitCode(256))
}

// degenerateDist is a final dynamic block whose distance code is a single
// one-bit code: literal 'a', then a three-byte match whose distance code
// is the bit distBit (0 is the code; 1 is the unused pattern).
func degenerateDist(distBit uint) []byte {
	var w bitWriter
	w.bits(1, 1)       // final
	w.bits(2, 2)       // dynamic
	w.bits(258-257, 5) // HLIT: literal/length symbols 0..257
	w.bits(1-1, 5)     // HDIST: distance symbol 0
	w.bits(19-4, 4)    // HCLEN: all 19 code-length code lengths
	// Code-length code: lengths 0..15 get four bits each, 16..18 none.
	var clLens [19]uint8
	for s := 0; s < 16; s++ {
		clLens[s] = 4
	}
	for _, s := range codeOrder {
		w.bits(uint64(clLens[s]), 3)
	}
	clCodes := canonical(clLens[:])
	lens := make([]uint8, 258+1)
	lens['a'], lens[256], lens[257] = 1, 2, 2
	lens[258] = 1 // the distance code
	for _, l := range lens {
		w.code(clCodes[l], 4)
	}
	litCodes := canonical(lens[:258])
	w.code(litCodes['a'], 1)
	w.code(litCodes[257], 2)
	w.bits(uint64(distBit), 1)
	w.code(litCodes[256], 2)
	return w.bytes()
}

// inflateSeed is one (stream, logical length) case and whether the
// oracle accepts it.
type inflateSeed struct {
	name   string
	stream []byte
	n      int
	ok     bool
}

// inflateSeeds are the streams FuzzInflate starts from and the
// differential test checks: the crafted edge cases of the acceptance
// rule, then streams from every compress/flate level, one with a sync
// flush, each with its logical length and lengths one short and one long.
func inflateSeeds(t testing.TB) []inflateSeed {
	// A dynamic block truncated inside its last symbol: compress/flate
	// fails before that symbol, so the stream yields 17 bytes.
	seeds := []inflateSeed{{"truncated dynamic", []byte("\x04\xc01\t\x00\x00\f\x030+3W\xe8A\xa8\xffoY27177"), 17, true}}
	// Distance code 29 reaches past the output; 30 and 31 are no distance.
	for _, d := range []uint{0, 29, 30, 31} {
		var w bitWriter
		fixedMatch(&w, d, true)
		seeds = append(seeds, inflateSeed{fmt.Sprintf("fixed distance code %d", d), w.bytes(), 4, d == 0})
	}
	// A stored block after a Huffman block: the bit buffer has read ahead
	// into the stored block's header.
	var w bitWriter
	fixedMatch(&w, 0, false)
	w.bits(1, 1)
	w.bits(0, 2)
	w.align()
	w.bits(5, 16)
	w.bits(0xffff^5, 16)
	w.out = append(w.out, "hello"...)
	seeds = append(seeds, inflateSeed{"stored after fixed", w.bytes(), 9, true})
	seeds = append(seeds,
		inflateSeed{"degenerate distance code", degenerateDist(0), 4, true},
		inflateSeed{"degenerate distance code, unused pattern", degenerateDist(1), 4, false})

	// Short enough that the fuzzer minimizes what it finds from them
	// quickly; TestInflateMatchesFlate covers streams longer than the
	// window.
	blocks := testBlocks()
	for di, data := range [][]byte{blocks[3][:256], blocks[5][:512]} {
		for _, level := range levels {
			s := deflate(t, data, level, di == 1)
			name := fmt.Sprintf("block %d level %d", di, level)
			seeds = append(seeds, inflateSeed{name, s, len(data), true},
				inflateSeed{name + " short", s, len(data) - 1, false},
				inflateSeed{name + " long", s, len(data) + 1, false})
		}
	}
	return seeds
}

// checkInflate holds inflate to the oracle on one (stream, length): the
// same accept-or-reject, the same bytes, the same typed error.
func checkInflate(t *testing.T, stream []byte, n int) {
	t.Helper()
	want, wantErr := flateDecode(nil, stream, n)
	got, gotErr := lzCodec{}.Decode(nil, append([]byte{lzFlate}, stream...), n)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("logical length %d: inflate err %v, flate err %v", n, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrCorrupt) {
			t.Fatalf("untyped inflate failure: %v", gotErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("logical length %d: inflate and flate accept different bytes", n)
	}
}

// checkYield holds inflate to what compress/flate delivers from stream,
// n bytes if fewer than limit: into n-1 bytes of output it must find the
// stream too long, into n+1 too short, and into n it must write those
// bytes.
func checkYield(t *testing.T, stream []byte, limit int) {
	t.Helper()
	want := flateYield(stream, limit)
	if len(want) == limit {
		return
	}
	for size := max(len(want)-1, 0); size <= len(want)+1; size++ {
		out := make([]byte, size)
		if got := inflate(out, stream); got != min(len(want), size+1) {
			t.Fatalf("into %d bytes, inflate yields %d; flate yields %d", size, got, len(want))
		}
		if size == len(want) && !bytes.Equal(out, want) {
			t.Fatalf("inflate and flate yield different bytes")
		}
	}
}

func TestInflateSeedsMatchFlate(t *testing.T) {
	for _, s := range inflateSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			if _, err := flateDecode(nil, s.stream, s.n); (err == nil) != s.ok {
				t.Fatalf("the oracle's verdict is %v, want accepted %v", err, s.ok)
			}
			checkInflate(t, s.stream, s.n)
			checkYield(t, s.stream, 1<<20)
		})
	}
}

// Every stream compress/flate writes for the test blocks, and the
// truncations and byte corruptions of those streams, yield what the
// oracle yields. The mutations use blocks cut to 40 KiB, past the 32 KiB
// window, which keeps the test quick under the race detector.
func TestInflateMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for bi, block := range testBlocks() {
		for _, level := range levels {
			s := deflate(t, block, level, bi%2 == 0)
			checkInflate(t, s, len(block))
			checkYield(t, s, 1<<20)
			if len(block) > 40<<10 {
				s = deflate(t, block[:40<<10], level, bi%2 == 0)
			}
			// The first and last 16 cuts, and 32 between.
			for cut := 0; cut < len(s); cut++ {
				if cut >= 16 && cut < len(s)-16 && cut%max(len(s)/32, 1) != 0 {
					continue
				}
				checkYield(t, s[:cut], 1<<20)
			}
			bad := make([]byte, len(s))
			for range 16 {
				copy(bad, s)
				for range 1 + rng.Intn(3) {
					bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
				}
				checkYield(t, bad, 1<<20)
			}
		}
	}
}

// A frame whose valid CRC declares a logical length its payload cannot
// yield is refused before the length is allocated.
func TestLzRefusesImpossibleLogicalLength(t *testing.T) {
	frame := []byte(magic)
	frame = append(frame, lzCodec{}.ID(), 0)
	frame = binary.LittleEndian.AppendUint32(frame, 1<<30) // logical length
	frame = binary.LittleEndian.AppendUint32(frame, 3)     // physical length
	frame = append(frame, lzFlate, 3, 0)                   // an empty final fixed-code block
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	if len(frame) != 21 {
		t.Fatalf("frame is %d bytes, want 21", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeFrame(nil, frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of a 1 GiB logical length: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes", got)
	}
}
