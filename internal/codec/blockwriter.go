package codec

import (
	"encoding/binary"
	"fmt"

	"hybridgraph/internal/diskio"
)

// BlockWriter streams a store file to disk without holding the logical
// image in memory, in the layout OpenReader reads under its codec: the
// image is staged ChunkSize bytes at a time and each chunk written as it
// is under the identity codec, else as one frame, with the chunk index
// and footer appended at Close — WriteBlockFile's bytes. Either way the
// logical charge is the one sequential write of the whole image, taken
// at Close, so builders that used to buffer a store can stream it
// without disturbing manifests, CRCs or accounting.
type BlockWriter struct {
	f       *diskio.File
	acct    *diskio.Accountant
	c       Codec  // the frames' codec; nil writes the image as it is
	buf     []byte // staged logical bytes, < ChunkSize after flush
	frame   []byte
	lens    []uint32 // physical frame length per chunk
	physOff int64
	logical int64
	closed  bool
}

// NewBlockWriter creates (truncating) a store file at path under c.
func NewBlockWriter(path string, ct *diskio.Counter, c Codec) (*BlockWriter, error) {
	return newBlockWriter(path, ct, framing(c))
}

// newBlockWriter is NewBlockWriter for the frames' codec c (nil: the
// identity layout); WriteBlockFile frames even under the identity codec.
func newBlockWriter(path string, ct *diskio.Counter, c Codec) (*BlockWriter, error) {
	phys, acct := sides(ct, c != nil)
	f, err := diskio.Create(path, phys)
	if err != nil {
		return nil, err
	}
	return &BlockWriter{f: f, acct: acct, c: c, buf: make([]byte, 0, ChunkSize)}, nil
}

// Write stages logical bytes, flushing each completed ChunkSize chunk.
// Implements io.Writer.
func (w *BlockWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("codec: write to closed block writer %s", w.f.Name())
	}
	n := len(p)
	for len(p) > 0 {
		take := ChunkSize - len(w.buf)
		if take > len(p) {
			take = len(p)
		}
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		if len(w.buf) == ChunkSize {
			if err := w.flushChunk(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

func (w *BlockWriter) flushChunk() error {
	out := encode(&w.frame, w.c, w.buf)
	if _, err := w.f.WriteAtClass(out, w.physOff, diskio.SeqWrite); err != nil {
		return err
	}
	if w.c != nil {
		w.lens = append(w.lens, uint32(len(out)))
	}
	w.physOff += int64(len(out))
	w.logical += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Close writes the staged tail and, for a framed file, the index frame
// and footer, and takes the whole-image logical charge. A writer that
// never received a byte leaves an empty file and charges nothing. Close
// may be called once on any writer; no Write may follow it.
func (w *BlockWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	defer w.f.Close()
	if len(w.buf) > 0 {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	if w.logical == 0 {
		return nil
	}
	if w.c != nil {
		index := make([]byte, 0, 4+4*len(w.lens))
		index = binary.LittleEndian.AppendUint32(index, uint32(len(w.lens)))
		for _, l := range w.lens {
			index = binary.LittleEndian.AppendUint32(index, l)
		}
		indexFrame := AppendFrame(nil, None, index)
		if _, err := w.f.WriteAtClass(indexFrame, w.physOff, diskio.SeqWrite); err != nil {
			return err
		}
		footer := make([]byte, 0, footerSize)
		footer = append(footer, footerMagic...)
		footer = binary.LittleEndian.AppendUint64(footer, uint64(w.physOff))
		footer = binary.LittleEndian.AppendUint64(footer, uint64(w.logical))
		if _, err := w.f.WriteAtClass(footer, w.physOff+int64(len(indexFrame)), diskio.SeqWrite); err != nil {
			return err
		}
	}
	w.acct.WriteAtClass(w.logical, 0, diskio.SeqWrite)
	return nil
}
