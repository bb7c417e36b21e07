package codec_test

import (
	"os"
	"path/filepath"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/veblock"
)

// veImage is the logical image of worker 0's VE-BLOCK file for a weighted
// R-MAT graph of 20 000 vertices and 300 000 edges over 2 workers of 20
// blocks each: the shape of the store the pr-lz benchmark workload scans.
func veImage(tb testing.TB) []byte {
	tb.Helper()
	const n, m, workers, blocksPer = 20000, 300000, 2, 20
	g := graph.GenRMAT(n, m, 0.57, 0.19, 0.19, 1)
	l, err := veblock.UniformLayout(graph.RangePartition(n, workers), blocksPer)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "veblock.dat")
	s, err := veblock.Build(path, &diskio.Counter{}, g, l, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// lzChunk is one BlockFile chunk of an image as lz stores it: the frame's
// payload and its logical length.
type lzChunk struct {
	payload []byte
	n       int
}

// lzChunks splits img into BlockFile chunks and encodes each under lz.
func lzChunks(tb testing.TB, img []byte) []lzChunk {
	tb.Helper()
	lz, err := codec.Lookup("lz")
	if err != nil {
		tb.Fatal(err)
	}
	var chunks []lzChunk
	for off := 0; off < len(img); off += codec.ChunkSize {
		logical := img[off:min(off+codec.ChunkSize, len(img))]
		frame := codec.AppendFrame(nil, lz, logical)
		payload := frame[codec.HeaderSize : len(frame)-4]
		if payload[0] != 1 {
			tb.Fatalf("chunk at %d is stored raw", off)
		}
		chunks = append(chunks, lzChunk{payload, len(logical)})
	}
	return chunks
}

// BenchmarkLzDecode decodes every lz chunk of a VE-BLOCK image, with the
// package's inflater and with the compress/flate reader it replaced; MB/s
// counts logical bytes.
func BenchmarkLzDecode(b *testing.B) {
	img := veImage(b)
	chunks := lzChunks(b, img)
	lz, err := codec.Lookup("lz")
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name   string
		decode func(dst, payload []byte, n int) ([]byte, error)
	}{
		{"inflate", lz.Decode},
		{"flate", func(dst, payload []byte, n int) ([]byte, error) { return codec.FlateDecode(dst, payload[1:], n) }},
	} {
		b.Run(d.name, func(b *testing.B) {
			buf := make([]byte, 0, codec.ChunkSize)
			b.SetBytes(int64(len(img)))
			b.ResetTimer()
			for range b.N {
				for _, c := range chunks {
					if buf, err = d.decode(buf[:0], c.payload, c.n); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// A warm lz decode of a store chunk allocates nothing: the inflater and
// its tables come from a pool, and the output is the caller's buffer.
func TestLzDecodeAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which the race detector perturbs")
	}
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	chunks := lzChunks(t, veImage(t))
	buf := make([]byte, 0, codec.ChunkSize)
	decode := func() {
		for _, c := range chunks {
			if buf, err = lz.Decode(buf[:0], c.payload, c.n); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if got := testing.AllocsPerRun(10, decode); got != 0 {
		t.Errorf("a warm decode of %d chunks allocated %v times, want 0", len(chunks), got)
	}
}
