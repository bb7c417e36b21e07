package codec

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkDeflate holds one encode of block to both decoders: the package's
// inflater, through lzCodec.Decode, and compress/flate's reader. It
// returns the stream.
func checkDeflate(t testing.TB, e *encoder, block []byte) []byte {
	t.Helper()
	stream := e.encode(nil, block)
	got, err := lzCodec{}.Decode(nil, append([]byte{lzFlate}, stream...), len(block))
	if err != nil {
		t.Fatalf("%d-byte block: inflate: %v", len(block), err)
	}
	if !bytes.Equal(got, block) {
		t.Fatalf("%d-byte block: inflate yields other bytes", len(block))
	}
	want, err := flateDecode(nil, stream, len(block))
	if err != nil {
		t.Fatalf("%d-byte block: compress/flate: %v", len(block), err)
	}
	if !bytes.Equal(want, block) {
		t.Fatalf("%d-byte block: compress/flate yields other bytes", len(block))
	}
	return stream
}

// deflateBlocks adds to testBlocks the shapes that reach the encoder's
// edges: inputs shorter than its margin, runs longer than a match, inputs
// of several blocks whose matches reach back across block boundaries, and
// an alphabet of every byte value, whose literal code needs long codes.
func deflateBlocks() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var blocks [][]byte
	for _, b := range testBlocks() {
		if len(b) > 0 {
			blocks = append(blocks, b)
		}
	}
	for n := 1; n <= 2*inputMargin+2; n++ {
		blocks = append(blocks, bytes.Repeat([]byte{'a'}, n), []byte("abcdefghijklmnopqrstuvwxyz0123456789")[:min(n, 36)])
	}
	blocks = append(blocks, bytes.Repeat([]byte{0}, 3*blockLen+1000))
	// A phrase seen again at the greatest distance DEFLATE allows, and
	// one byte further, where it must not be matched.
	for _, d := range []int{maxDistance, maxDistance + 1} {
		far := append([]byte("ABCDEFGH"), make([]byte, d-8)...)
		blocks = append(blocks, append(append(far, "ABCDEFGH"...), make([]byte, 64)...))
	}
	phrase := make([]byte, 40000)
	rng.Read(phrase)
	mixed := make([]byte, 0, 5*blockLen)
	for len(mixed) < 5*blockLen {
		off := rng.Intn(len(phrase) - 300)
		mixed = append(mixed, phrase[off:off+rng.Intn(300)]...)
		mixed = append(mixed, byte(rng.Intn(256)))
	}
	blocks = append(blocks, mixed)
	skewed := make([]byte, 3*blockLen/2)
	for i := range skewed {
		// Geometric byte frequencies: the Huffman depths exceed 15.
		v := 0
		for v < 255 && rng.Intn(3) != 0 {
			v++
		}
		skewed[i] = byte(v)
	}
	blocks = append(blocks, skewed)
	return blocks
}

func TestDeflateRoundtrip(t *testing.T) {
	e := new(encoder)
	for _, b := range deflateBlocks() {
		checkDeflate(t, e, b)
	}
}

// An encoder that has encoded other streams, or whose positions were about
// to overflow, writes the bytes a new one does.
func TestDeflateIsRunInvariant(t *testing.T) {
	blocks := deflateBlocks()
	for i, b := range blocks {
		fresh := new(encoder).encode(nil, b)
		dirty := new(encoder)
		dirty.encode(nil, blocks[(i+1)%len(blocks)])
		if got := dirty.encode(nil, b); !bytes.Equal(got, fresh) {
			t.Fatalf("block %d (%d bytes): a used encoder wrote other bytes", i, len(b))
		}
		dirty.base = math.MaxInt32 - int32(len(b)) + 1
		if got := dirty.encode(nil, b); !bytes.Equal(got, fresh) {
			t.Fatalf("block %d (%d bytes): an encoder past its position range wrote other bytes", i, len(b))
		}
	}
}

// huffCost is the cost, in bits, of an optimal unlimited Huffman code for
// freq: the sum of its internal node weights.
func huffCost(freq []uint32) int {
	var w []int
	for _, f := range freq {
		if f != 0 {
			w = append(w, int(f))
		}
	}
	cost := 0
	for len(w) > 1 {
		// Two smallest, by selection: the inputs are short.
		for k := range 2 {
			m := k
			for i := k; i < len(w); i++ {
				if w[i] < w[m] {
					m = i
				}
			}
			w[k], w[m] = w[m], w[k]
		}
		s := w[0] + w[1]
		cost += s
		w = append(w[2:], s)
	}
	return cost
}

// huffLengths builds a complete code within its limit, and an optimal one
// where the limit does not bind.
func TestHuffLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := new(encoder)
	for trial := range 2000 {
		n := 1 + rng.Intn(numLit)
		freq := make([]uint32, n)
		used := 0
		for i := range freq {
			switch rng.Intn(4) {
			case 0:
			case 1:
				freq[i] = uint32(rng.Intn(4))
			default:
				freq[i] = uint32(rng.Intn(1 << uint(rng.Intn(17))))
			}
			if trial%7 == 0 && i > 0 {
				freq[i] = freq[i-1] + freq[max(i-2, 0)] + 1 // Fibonacci-like: deep codes
			}
			if freq[i] != 0 {
				used++
			}
		}
		if used < 2 && n < 2 {
			continue
		}
		maxBits := maxCodeBits
		if trial%3 == 0 {
			maxBits = maxCLBits
		}
		if 1<<maxBits < used {
			continue
		}
		lens := make([]uint8, n)
		e.huffLengths(lens, freq, maxBits)
		kraft, deepest, cost, coded := 0, 0, 0, 0
		for s, l := range lens {
			if l > uint8(maxBits) {
				t.Fatalf("trial %d: symbol %d has a %d-bit code, limit %d", trial, s, l, maxBits)
			}
			if freq[s] != 0 && l == 0 {
				t.Fatalf("trial %d: used symbol %d has no code", trial, s)
			}
			if l != 0 {
				kraft += 1 << (maxBits - int(l))
				coded++
			}
			deepest = max(deepest, int(l))
			cost += int(freq[s]) * int(l)
		}
		if kraft != 1<<maxBits || coded < 2 {
			t.Fatalf("trial %d: %d codes with Kraft sum %d/%d, want a complete code", trial, coded, kraft, 1<<maxBits)
		}
		if opt := huffCost(freq); used >= 2 && deepest < maxBits && cost != opt {
			t.Fatalf("trial %d: code costs %d bits, an optimal one %d", trial, cost, opt)
		}
	}
}

// longCodeBlock builds a block, and e's tokens for it, in which 15-bit
// codes meet the longest extra fields. Four matches of length 250 (length
// code 284, 5 extra bits) at distances over 24 KiB (distance code 29, 13
// extra bits), each followed by a literal used nowhere else, lie among
// literals and length-3 matches whose symbols have Fibonacci weights.
// Those weights chain each Huffman tree, so the four rare symbols are the
// deepest and get 15-bit codes: a far match and the literal after it
// take 63 bits.
func longCodeBlock(e *encoder, rng *rand.Rand) []byte {
	const w, rareLit, farLen = 4, 200, 250
	type step struct{ lit, length, dist int } // dist 0: a literal
	var steps []step
	// Literals 0-15 weigh 2w, 3w, 5w, ...: above the end-of-block code
	// (1), the rare literal (w) and length code 284 (w).
	f := [2]int{2 * w, 3 * w}
	for b := range 16 {
		for range f[0] {
			steps = append(steps, step{lit: b})
		}
		f = [2]int{f[1], f[0] + f[1]}
	}
	// Distance codes 14 down to 0 weigh w, 2w, 3w, ...: above code 29 (w).
	f = [2]int{w, 2 * w}
	for dc := 14; dc >= 0; dc-- {
		lo, extra := distCode0(dc)
		for range f[0] {
			steps = append(steps, step{length: 3, dist: lo + rng.Intn(1<<extra)})
		}
		f = [2]int{f[1], f[0] + f[1]}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	// Literals first, so that every near match has bytes to copy.
	slices.SortStableFunc(steps[:len(steps)/8], func(a, b step) int { return a.dist - b.dist })
	// The far matches go among the last quarter of the steps.
	far := make(map[int]bool)
	for len(far) < 4 {
		far[len(steps)*3/4+rng.Intn(len(steps)/4)] = true
	}

	e.toks = e.toks[:0]
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.extra, e.acc, e.nb = 0, 0, 0
	var src []byte
	emit := 0
	add := func(s step) {
		if s.dist == 0 {
			src = append(src, byte(s.lit))
			e.litFreq[s.lit]++
			return
		}
		if s.dist > len(src) {
			panic("longCodeBlock: a match before its source")
		}
		e.addMatch(len(src)-emit, s.length, s.dist)
		for range s.length {
			src = append(src, src[len(src)-s.dist])
		}
		emit = len(src)
	}
	for i, s := range steps {
		if far[i] {
			add(step{length: farLen, dist: 24577 + rng.Intn(8192)})
			add(step{lit: rareLit})
		}
		add(s)
	}
	e.tail = len(src) - emit
	return src
}

// distCode0 returns the least distance of distance code dc and its extra
// bits.
func distCode0(dc int) (lo, extra int) {
	if dc < 4 {
		return dc + 1, 0
	}
	extra = dc/2 - 1
	return 1 + (2+dc&1)<<extra, extra
}

// A block whose rarest codes are 15 bits long and whose far matches carry
// 13 distance extra bits decodes to its bytes: the bit writer never holds
// more bits than its 64-bit buffer.
func TestDeflateLongCodesFarMatches(t *testing.T) {
	e := new(encoder)
	for seed := range int64(8) {
		src := longCodeBlock(e, rand.New(rand.NewSource(seed)))
		stream := e.writeBlock(nil, src, 0, true)
		if e.litLens[284] != maxCodeBits || e.litLens[200] != maxCodeBits || e.distLens[29] != maxCodeBits {
			t.Fatalf("seed %d: codes of length 284, literal 200 and distance 29 are %d, %d and %d bits, want %d",
				seed, e.litLens[284], e.litLens[200], e.distLens[29], maxCodeBits)
		}
		got, err := lzCodec{}.Decode(nil, append([]byte{lzFlate}, stream...), len(src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("seed %d: %d-byte block: inflate: %v, same bytes %v", seed, len(src), err, bytes.Equal(got, src))
		}
		if got, err := flateDecode(nil, stream, len(src)); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("seed %d: %d-byte block: compress/flate: %v, same bytes %v", seed, len(src), err, bytes.Equal(got, src))
		}
	}
}
