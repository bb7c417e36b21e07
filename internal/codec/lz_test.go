package codec_test

import (
	"bytes"
	"compress/flate"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
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

// spillImage is the records worker 0's inbox spills in one PageRank push
// superstep on veImage's graph: a message val/outdeg from every source,
// sender-major, to each of its out-neighbours in worker 0's half of the
// vertices, as 12-byte records. The values are those after three
// iterations, so they differ from source to source.
func spillImage() []byte {
	const n, m, iters = 20000, 300000, 3
	g := graph.GenRMAT(n, m, 0.57, 0.19, 0.19, 1)
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / n
	}
	sum := make([]float64, n)
	for range iters {
		clear(sum)
		for v := range rank {
			for _, h := range g.OutEdges(graph.VertexID(v)) {
				sum[h.Dst] += rank[v] / float64(g.OutDegree(graph.VertexID(v)))
			}
		}
		for v := range rank {
			rank[v] = 0.15/n + 0.85*sum[v]
		}
	}
	lo := graph.RangePartition(n, 2)[0]
	var img comm.Records
	for v := range rank {
		for _, h := range g.OutEdges(graph.VertexID(v)) {
			if lo.Contains(h.Dst) {
				img = comm.AppendRecords(img, []comm.Msg{{Dst: h.Dst, Val: rank[v] / float64(g.OutDegree(graph.VertexID(v)))}})
			}
		}
	}
	return img
}

// encodeImage is one image split into the frames a store writes it in.
type encodeImage struct {
	name   string
	img    []byte
	frame  int
	chunks [][]byte
}

func encodeImages(tb testing.TB) []encodeImage {
	tb.Helper()
	ims := []encodeImage{{name: "veblock", img: veImage(tb), frame: codec.ChunkSize},
		{name: "spill", img: spillImage(), frame: codec.SpillChunk}}
	for i := range ims {
		for off := 0; off < len(ims[i].img); off += ims[i].frame {
			ims[i].chunks = append(ims[i].chunks, ims[i].img[off:min(off+ims[i].frame, len(ims[i].img))])
		}
	}
	return ims
}

// flateEncoder is compress/flate's writer at BestSpeed, the encoder lz
// used before the package deflated frames itself: the reference for the
// package encoder's speed and ratio.
type flateEncoder struct {
	buf bytes.Buffer
	zw  *flate.Writer
}

func newFlateEncoder(tb testing.TB) *flateEncoder {
	f := &flateEncoder{}
	var err error
	if f.zw, err = flate.NewWriter(&f.buf, flate.BestSpeed); err != nil {
		tb.Fatal(err)
	}
	return f
}

// Encode appends the payload lz stores for src, with the marker byte, as
// lzCodec.Encode did with compress/flate.
func (f *flateEncoder) Encode(dst, src []byte) []byte {
	f.buf.Reset()
	f.zw.Reset(&f.buf)
	if _, err := f.zw.Write(src); err != nil {
		panic(err)
	}
	if err := f.zw.Close(); err != nil {
		panic(err)
	}
	return append(append(dst, 1), f.buf.Bytes()...)
}

// BenchmarkLzEncode encodes a VE-BLOCK image in ChunkSize frames and a
// push-spill image in SpillChunk frames, with the package's encoder and
// with compress/flate at BestSpeed; MB/s counts logical bytes.
func BenchmarkLzEncode(b *testing.B) {
	lz, err := codec.Lookup("lz")
	if err != nil {
		b.Fatal(err)
	}
	for _, im := range encodeImages(b) {
		for _, e := range []struct {
			name   string
			encode func(dst, src []byte) []byte
		}{
			{"deflate", lz.Encode},
			{"flate", newFlateEncoder(b).Encode},
		} {
			b.Run(im.name+"/"+e.name, func(b *testing.B) {
				buf := make([]byte, 0, 2*im.frame)
				b.SetBytes(int64(len(im.img)))
				b.ResetTimer()
				for range b.N {
					for _, c := range im.chunks {
						buf = e.encode(buf[:0], c)
					}
				}
			})
		}
	}
}

// On both images the package encoder's frames decode to their bytes
// through lzCodec.Decode and through compress/flate's reader, and take at
// most 1 % more bytes than compress/flate's at BestSpeed.
func TestLzEncodeRatio(t *testing.T) {
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	fl := newFlateEncoder(t)
	for _, im := range encodeImages(t) {
		var got, want int
		for i, c := range im.chunks {
			frame := lz.Encode(nil, c)
			got += len(frame)
			want += len(fl.Encode(nil, c))
			if dec, err := lz.Decode(nil, frame, len(c)); err != nil || !bytes.Equal(dec, c) {
				t.Fatalf("%s frame %d: lz decode: %v, same bytes %v", im.name, i, err, bytes.Equal(dec, c))
			}
			if frame[0] == 0 {
				continue // stored raw
			}
			dec, err := io.ReadAll(flate.NewReader(bytes.NewReader(frame[1:])))
			if err != nil || !bytes.Equal(dec, c) {
				t.Fatalf("%s frame %d: compress/flate: %v, same bytes %v", im.name, i, err, bytes.Equal(dec, c))
			}
		}
		t.Logf("%s: %d logical bytes in %d frames: %d bytes encoded, %d at BestSpeed", im.name, len(im.img), len(im.chunks), got, want)
		if float64(got) > 1.01*float64(want) {
			t.Errorf("%s: %d bytes encoded, more than 1.01 x BestSpeed's %d", im.name, got, want)
		}
	}
}

// A warm lz encode of store and spill frames allocates nothing: the
// encoder comes from a free list, and the output is the caller's buffer.
func TestLzEncodeAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which the race detector perturbs")
	}
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	ims := encodeImages(t)
	buf := make([]byte, 0, 2*codec.ChunkSize)
	encode := func() {
		for _, im := range ims {
			for _, c := range im.chunks {
				buf = lz.Encode(buf[:0], c)
			}
		}
	}
	encode()
	if got := testing.AllocsPerRun(10, encode); got != 0 {
		t.Errorf("a warm encode of %d and %d frames allocated %v times, want 0", len(ims[0].chunks), len(ims[1].chunks), got)
	}
}
