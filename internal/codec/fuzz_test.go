package codec

import (
	"bytes"
	"errors"
	"testing"
)

func fuzzSeeds(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("hello, world"))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}) // sorted LE u32 run
	f.Add(bytes.Repeat([]byte("ab"), 400))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9})
}

// FuzzRoundtripNone / Delta / Lz: for arbitrary logical blocks, the
// encode → frame → decode cycle must reproduce the input exactly.
func fuzzRoundtrip(f *testing.F, name string) {
	c, err := Lookup(name)
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, block []byte) {
		frame := AppendFrame(nil, c, block)
		out, n, err := DecodeFrame(nil, frame)
		if err != nil {
			t.Fatalf("decode of own frame: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
		}
		if !bytes.Equal(out, block) {
			t.Fatalf("roundtrip mismatch: %d in, %d out", len(block), len(out))
		}
	})
}

func FuzzRoundtripNone(f *testing.F)  { fuzzRoundtrip(f, "none") }
func FuzzRoundtripDelta(f *testing.F) { fuzzRoundtrip(f, "delta") }
func FuzzRoundtripLz(f *testing.F)    { fuzzRoundtrip(f, "lz") }

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, and every failure must be the typed ErrCorrupt. Inputs
// that happen to be valid frames must decode to their declared logical
// length and re-encode losslessly.
func FuzzDecodeFrame(f *testing.F) {
	fuzzSeeds(f)
	for _, name := range Names() {
		c, _ := Lookup(name)
		f.Add(AppendFrame(nil, c, []byte("seed payload for the decoder")))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		out, n, err := DecodeFrame(nil, b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode failure: %v", err)
			}
			return
		}
		if n < FrameOverhead || n > len(b) {
			t.Fatalf("decoded frame length %d out of range (input %d)", n, len(b))
		}
		h, err := ParseHeader(b)
		if err != nil {
			t.Fatalf("decoded a frame whose header does not parse: %v", err)
		}
		if len(out) != h.LogicalLen {
			t.Fatalf("decoded %d bytes, header declares %d", len(out), h.LogicalLen)
		}
	})
}

// FuzzInflate holds the package's DEFLATE decoder to the compress/flate
// oracle: for any stream and logical length, the same accept-or-reject
// and the same bytes; and, where the stream yields under 64 KiB, the
// same count of bytes before the stream ends or fails.
func FuzzInflate(f *testing.F) {
	for _, s := range inflateSeeds(f) {
		f.Add(s.stream, uint32(s.n))
	}
	f.Fuzz(func(t *testing.T, stream []byte, n uint32) {
		checkInflate(t, stream, int(n%(1<<16)))
		checkYield(t, stream, 1<<16)
	})
}
