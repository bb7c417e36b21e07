// Package ingest is the bounded-memory streaming importer: it turns an
// arbitrary-size edge-list stream — whitespace/tab text, a binary
// u32-pair format, or either wrapped in gzip, sniffed by magic bytes —
// into the catalog's on-disk entry layout (graph.el, per-worker
// adjacency runs and VE-BLOCK files) without ever materialising the
// graph. The pipeline is a classic external sort: parsed edges fill a
// fixed-size in-RAM run under Options.MemBudget, full runs spill as
// codec-framed sorted files, and a k-way merge streams globally sorted
// edges into the store builders shard by shard. Both the catalog's
// legacy in-memory ingest and the new streaming entry point route
// through this builder, so the two produce bit-identical entries.
package ingest

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hybridgraph/internal/graph"
)

// ErrFormat is the typed sentinel every malformed-input failure wraps:
// unparsable text lines, truncated binary records, gzip garbage, or a
// stream that yields no vertices at all. Callers match it with
// errors.Is; I/O failures while draining the stream are wrapped too,
// since a half-delivered upload is indistinguishable from a truncated
// file.
var ErrFormat = errors.New("ingest: malformed edge-list input")

// BinaryMagic prefixes the binary u32-pair edge format: the 4 magic
// bytes, then one record per edge — src uint32 LE, dst uint32 LE, unit
// weight implied. The format exists for bulk transfers: 8 bytes per
// edge against ~14 for text, and no parsing cost.
const BinaryMagic = "HGE1"

const gzipNesting = 4 // sniffing depth cap for gzip-in-gzip inputs

// emitFunc receives one parsed edge. Errors returned by the sink (spill
// I/O, fault injection) propagate unwrapped — they are not format
// errors.
type emitFunc func(src, dst uint32, w float32) error

// parseStream sniffs r's format by magic bytes and parses every edge
// into emit, returning the final vertex count under the text codec's
// rules (a "# vertices N" header fixes the count; ids extend it) and
// the number of records parsed.
func parseStream(r io.Reader, emit emitFunc) (n int, parsed int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for depth := 0; ; depth++ {
		head, err := br.Peek(2)
		if err == io.EOF {
			// Empty input: zero vertices, reported by the caller.
			return 0, 0, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		if head[0] != 0x1f || head[1] != 0x8b {
			break
		}
		if depth == gzipNesting {
			return 0, 0, fmt.Errorf("%w: gzip nested deeper than %d levels", ErrFormat, gzipNesting)
		}
		zr, err := gzip.NewReader(br)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: gzip: %v", ErrFormat, err)
		}
		br = bufio.NewReaderSize(zr, 1<<16)
	}
	if magic, err := br.Peek(len(BinaryMagic)); err == nil && string(magic) == BinaryMagic {
		br.Discard(len(BinaryMagic))
		return parseBinary(br, emit)
	}
	return parseText(br, emit)
}

// parseText consumes the whitespace-separated text edge-list format
// with exactly graph.ReadEdgeList's semantics: '#' lines are comments
// except a "# vertices N" header that (re)fixes the vertex count, the
// weight column is optional and defaults to 1, and ids raise the count
// to max(id)+1 as they appear.
func parseText(r io.Reader, emit emitFunc) (int, int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	n := 0
	line := 0
	var parsed int64
	for sc.Scan() {
		line++
		e, hn, ok, err := graph.ParseEdgeLine(sc.Bytes())
		if err != nil {
			return 0, 0, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		if hn > 0 {
			n = hn
		}
		if !ok {
			continue
		}
		if err := emit(uint32(e.Src), uint32(e.Dst), e.Weight); err != nil {
			return 0, 0, err
		}
		parsed++
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
	}
	return n, parsed, nil
}

// parseBinary consumes the post-magic body of the binary format: 8-byte
// (src, dst) little-endian records to EOF. A trailing partial record is
// a truncation, reported as ErrFormat.
func parseBinary(r io.Reader, emit emitFunc) (int, int64, error) {
	n := 0
	var parsed int64
	var rec [8]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return n, parsed, nil
			}
			return 0, 0, fmt.Errorf("%w: truncated binary edge record after %d edges: %v", ErrFormat, parsed, err)
		}
		src := binary.LittleEndian.Uint32(rec[0:])
		dst := binary.LittleEndian.Uint32(rec[4:])
		if err := emit(src, dst, 1); err != nil {
			return 0, 0, err
		}
		parsed++
		if int(src) >= n {
			n = int(src) + 1
		}
		if int(dst) >= n {
			n = int(dst) + 1
		}
	}
}

// ParseBytes parses a human byte quantity: a plain integer, or one with
// a K/M/G/T suffix (binary multiples; "KiB"/"kb" style spellings are
// accepted). Used by the CLI's -mem-budget flag and the service's
// mem_budget query parameter.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("ingest: empty byte quantity")
	}
	mult := int64(1)
	suffixes := []struct {
		s string
		m int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30}, {"tb", 1 << 40},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
	}
	for _, sf := range suffixes {
		if strings.HasSuffix(t, sf.s) && len(t) > len(sf.s) {
			mult = sf.m
			t = strings.TrimSuffix(t, sf.s)
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("ingest: bad byte quantity %q", s)
	}
	return int64(v * float64(mult)), nil
}
