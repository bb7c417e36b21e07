package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/obs"
)

// testBlocks covers the payload shapes the stores produce: empty, tiny,
// word-aligned sorted runs (adjacency), unaligned tails, incompressible
// noise, and a multi-chunk image.
func testBlocks() [][]byte {
	rng := rand.New(rand.NewSource(42))
	sorted := make([]byte, 4*10000)
	v := uint32(0)
	for i := 0; i < len(sorted); i += 4 {
		v += uint32(rng.Intn(5))
		binary.LittleEndian.PutUint32(sorted[i:], v)
	}
	noise := make([]byte, 33333)
	rng.Read(noise)
	big := bytes.Repeat([]byte("hybrid pulling and pushing "), 10000)
	return [][]byte{
		nil,
		{0x01},
		[]byte("hello"),
		sorted,
		noise,
		big,
	}
}

func TestRoundtripAllCodecs(t *testing.T) {
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, block := range testBlocks() {
			frame := AppendFrame(nil, c, block)
			h, err := ParseHeader(frame)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			if h.CodecID != c.ID() || h.LogicalLen != len(block) || h.FrameLen() != len(frame) {
				t.Fatalf("%s block %d: header %+v, frame %d bytes", name, i, h, len(frame))
			}
			out, n, err := DecodeFrame(nil, frame)
			if err != nil {
				t.Fatalf("%s block %d: decode: %v", name, i, err)
			}
			if n != len(frame) || !bytes.Equal(out, block) {
				t.Fatalf("%s block %d: roundtrip mismatch (%d of %d bytes consumed)", name, i, n, len(frame))
			}
		}
	}
}

// TestDeltaCompressesSortedRuns pins the codec's reason to exist: sorted
// word runs (adjacency lists) must shrink; lz must shrink repetitive text.
func TestDeltaCompressesSortedRuns(t *testing.T) {
	blocks := testBlocks()
	sorted, big := blocks[3], blocks[5]
	d, _ := Lookup("delta")
	if got := len(AppendFrame(nil, d, sorted)); got >= len(sorted) {
		t.Errorf("delta frame of sorted run: %d bytes for %d logical", got, len(sorted))
	}
	l, _ := Lookup("lz")
	if got := len(AppendFrame(nil, l, big)); got >= len(big) {
		t.Errorf("lz frame of repetitive text: %d bytes for %d logical", got, len(big))
	}
}

// TestEncodeNeverGrowsPastRawFallback: every codec carries a raw-copy
// escape, so the payload is never more than one marker byte over logical.
func TestEncodeNeverGrowsPastRawFallback(t *testing.T) {
	for _, name := range []string{"delta", "lz"} {
		c, _ := Lookup(name)
		for i, block := range testBlocks() {
			frame := AppendFrame(nil, c, block)
			if len(frame) > len(block)+1+FrameOverhead {
				t.Errorf("%s block %d: frame %d bytes for %d logical", name, i, len(frame), len(block))
			}
		}
	}
}

func TestLookupErrors(t *testing.T) {
	if c, err := Lookup(""); err != nil || !IsNone(c) {
		t.Fatalf("Lookup(\"\") = %v, %v; want the none codec", c, err)
	}
	if _, err := Lookup("snappy"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Lookup(snappy) error = %v, want ErrUnknown", err)
	}
	if _, err := ByID(200); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ByID(200) error = %v, want ErrCorrupt", err)
	}
}

// TestCorruptFramesAreTyped flips, truncates and rewrites frames every
// way a disk can and demands errors.Is(err, ErrCorrupt) each time.
func TestCorruptFramesAreTyped(t *testing.T) {
	c, _ := Lookup("lz")
	block := bytes.Repeat([]byte("abcdefgh"), 600)
	frame := AppendFrame(nil, c, block)

	mutations := map[string]func([]byte) []byte{
		"bad magic":      func(f []byte) []byte { f[0] ^= 0xff; return f },
		"unknown codec":  func(f []byte) []byte { f[4] = 200; return f },
		"logical len":    func(f []byte) []byte { f[6] ^= 0x10; return f },
		"physical len":   func(f []byte) []byte { f[10] ^= 0x01; return f },
		"payload flip":   func(f []byte) []byte { f[HeaderSize+3] ^= 0x40; return f },
		"crc flip":       func(f []byte) []byte { f[len(f)-1] ^= 0x01; return f },
		"truncated head": func(f []byte) []byte { return f[:HeaderSize-2] },
		"truncated body": func(f []byte) []byte { return f[:len(f)-7] },
	}
	for name, mutate := range mutations {
		mutated := mutate(append([]byte(nil), frame...))
		if _, _, err := DecodeFrame(nil, mutated); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", name, err)
		}
	}
	// The pristine frame still decodes after all that (mutations copied).
	if out, _, err := DecodeFrame(nil, frame); err != nil || !bytes.Equal(out, block) {
		t.Fatalf("pristine frame broken: %v", err)
	}
}

// TestBlockFileRoundtrip exercises the chunked store: multi-chunk image,
// sequential and random reads, logical accounting identical to a raw
// File, physical bytes smaller than logical for compressible data.
func TestBlockFileRoundtrip(t *testing.T) {
	for _, name := range []string{"none", "delta", "lz"} {
		c, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			img := make([]byte, 3*ChunkSize+1234) // multi-chunk with a short tail
			v := uint32(0)
			for i := 0; i+4 <= len(img); i += 4 {
				v += uint32(i % 7)
				binary.LittleEndian.PutUint32(img[i:], v)
			}

			// Raw reference: the same writes and reads against a plain File
			// (Create + one sequential write, the raw stores' pattern).
			var rawCt diskio.Counter
			rawPath := filepath.Join(dir, "raw.dat")
			rw, err := diskio.Create(rawPath, &rawCt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rw.WriteAtClass(img, 0, diskio.SeqWrite); err != nil {
				t.Fatal(err)
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}

			var ct diskio.Counter
			phys := &diskio.Counter{}
			ct.SetPhys(phys)
			path := filepath.Join(dir, "blk.dat")
			if err := WriteBlockFile(path, &ct, c, img); err != nil {
				t.Fatal(err)
			}
			if ct.Snapshot() != rawCt.Snapshot() {
				t.Fatalf("write: logical %v != raw-store %v", ct.Snapshot(), rawCt.Snapshot())
			}

			b, err := OpenBlockFile(path, &ct)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if sz, _ := b.Size(); sz != int64(len(img)) {
				t.Fatalf("Size = %d, want %d", sz, len(img))
			}

			rf, err := diskio.OpenRead(rawPath, &rawCt)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()

			reads := []struct {
				off int64
				n   int
				cls diskio.Class
			}{
				{0, 8192, diskio.SeqRead},
				{8192, 8192, diskio.SeqRead},
				{int64(len(img)) - 100, 100, diskio.RandRead},
				{ChunkSize - 10, 20, diskio.RandRead}, // chunk-straddling
				{0, 0, diskio.RandRead},               // zero-byte op
				{int64(len(img)) + 5, 10, diskio.RandRead},
			}
			for i, r := range reads {
				got := make([]byte, r.n)
				want := make([]byte, r.n)
				gn, gerr := b.ReadAtClass(got, r.off, r.cls)
				wn, werr := rf.ReadAtClass(want, r.off, r.cls)
				if gn != wn || (gerr == nil) != (werr == nil) {
					t.Fatalf("read %d: (%d, %v) vs raw (%d, %v)", i, gn, gerr, wn, werr)
				}
				if !bytes.Equal(got[:gn], want[:wn]) {
					t.Fatalf("read %d: data mismatch", i)
				}
			}
			if ct.Snapshot() != rawCt.Snapshot() {
				t.Fatalf("logical accounting diverged: %v vs raw %v", ct.Snapshot(), rawCt.Snapshot())
			}
			if name != "none" {
				if p, l := phys.Snapshot().Total(), ct.Snapshot().Total(); p >= l {
					t.Errorf("physical %d !< logical %d", p, l)
				}
			}
		})
	}
}

// TestBlockFileCorruptionTyped: flip one byte anywhere in a compressed
// store and every outcome must be a typed ErrCorrupt (at open, from the
// footer and index checks, or at read, from the chunk CRC) or, for flips
// inside a chunk the reads never touch, a clean identical read.
func TestBlockFileCorruptionTyped(t *testing.T) {
	c, _ := Lookup("lz")
	dir := t.TempDir()
	img := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, ChunkSize/4)
	var ct diskio.Counter
	path := filepath.Join(dir, "blk.dat")
	if err := WriteBlockFile(path, &ct, c, img); err != nil {
		t.Fatal(err)
	}
	pristine, err := readRawFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off += 37 {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x20
		if err := writeRawFile(path, mutated); err != nil {
			t.Fatal(err)
		}
		var rc diskio.Counter
		b, err := OpenBlockFile(path, &rc)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknown) {
				t.Fatalf("flip at %d: open error not typed: %v", off, err)
			}
			continue
		}
		buf := make([]byte, len(img))
		_, rerr := b.ReadAtClass(buf, 0, diskio.SeqRead)
		b.Close()
		if rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("flip at %d: read error not typed: %v", off, rerr)
			}
			continue
		}
		if !bytes.Equal(buf, img) {
			t.Fatalf("flip at %d: silent corruption", off)
		}
	}
}

// TestSpillFileRoundtrip: append records, drain, recycle — data and
// logical charges must match the raw spill pattern.
func TestSpillFileRoundtrip(t *testing.T) {
	for _, name := range []string{"none", "lz"} {
		c, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			var ct diskio.Counter
			phys := &diskio.Counter{}
			ct.SetPhys(phys)
			s := NewSpillFile(filepath.Join(t.TempDir(), "spill.dat"), &ct, c)
			for cycle := 0; cycle < 2; cycle++ {
				var want []byte
				rec := make([]byte, 12)
				for i := 0; i < 4000; i++ {
					binary.LittleEndian.PutUint32(rec, uint32(i))
					binary.LittleEndian.PutUint64(rec[4:], uint64(cycle))
					if err := s.Append(rec); err != nil {
						t.Fatal(err)
					}
					want = append(want, rec...)
				}
				if s.Len() != int64(len(want)) {
					t.Fatalf("Len = %d, want %d", s.Len(), len(want))
				}
				got := make([]byte, len(want))
				if err := s.ReadAll(got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("drained records differ")
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			snap := ct.Snapshot()
			if snap.Bytes[diskio.RandWrite] != 2*4000*12 || snap.Bytes[diskio.SeqRead] != 2*4000*12 {
				t.Fatalf("logical charges: %v", snap)
			}
		})
	}
}

// A spill appended in batches that encode straight into the staging area
// leaves the file, the logical and physical charges and the flush count
// that one Append per record leaves, under the identity codec and framed.
func TestSpillAppendEncodedMatchesAppend(t *testing.T) {
	const n = 9000 // past several staging buffers and frames
	recs := make([]byte, n*12)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(recs[i*12:], uint32(i%997))
		binary.LittleEndian.PutUint64(recs[i*12+4:], uint64(i))
	}
	for _, name := range []string{"none", "lz"} {
		c, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			type result struct {
				file          []byte
				logical, phys diskio.Snapshot
				flushes       int64
			}
			spill := func(add func(s *SpillFile) error) result {
				var ct, phys diskio.Counter
				ct.SetPhys(&phys)
				var flushes obs.Counter
				path := filepath.Join(t.TempDir(), "spill.dat")
				s := NewSpillFile(path, &ct, c)
				s.CountFlushes(&flushes)
				if err := add(s); err != nil {
					t.Fatal(err)
				}
				if err := s.ReadAll(make([]byte, n*12)); err != nil {
					t.Fatal(err)
				}
				file, err := readRawFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return result{file, ct.Snapshot(), phys.Snapshot(), flushes.Value()}
			}
			want := spill(func(s *SpillFile) error {
				for i := 0; i < n; i++ {
					if err := s.Append(recs[i*12 : i*12+12]); err != nil {
						return err
					}
				}
				return nil
			})
			got := spill(func(s *SpillFile) error {
				rng := rand.New(rand.NewSource(1))
				for done := 0; done < n; {
					k := min(n-done, 1+rng.Intn(3000))
					accepted, err := s.AppendEncoded(k, 12, func(dst []byte, first int) {
						copy(dst, recs[(done+first)*12:])
					})
					if err != nil || accepted != k {
						return fmt.Errorf("accepted %d of %d: %v", accepted, k, err)
					}
					done += k
				}
				return nil
			})
			if !bytes.Equal(got.file, want.file) {
				t.Fatalf("file holds %d bytes, %d with one Append per record, or differs", len(got.file), len(want.file))
			}
			if got.logical != want.logical || got.phys != want.phys || got.flushes != want.flushes {
				t.Fatalf("charged %+v / %+v with %d flushes, per-record Append %+v / %+v with %d",
					got.logical, got.phys, got.flushes, want.logical, want.phys, want.flushes)
			}
		})
	}
}

func readRawFile(path string) ([]byte, error) {
	var ct diskio.Counter
	f, err := diskio.OpenRead(path, &ct)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sz)
	if _, err := f.ReadAtClass(buf, 0, diskio.SeqRead); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeRawFile(path string, b []byte) error {
	var ct diskio.Counter
	return diskio.WriteFileSync(path, b, &ct, diskio.SeqWrite)
}
