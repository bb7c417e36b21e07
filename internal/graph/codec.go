package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// WriteEdgeList writes g in the whitespace-separated text edge-list format
// used by the paper's dataset sources: one "src dst weight" triple per
// line, preceded by a "# vertices N" header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices); err != nil {
		return err
	}
	// One reused line buffer; the bytes are fmt's "%d %d %g\n".
	var line []byte
	for v := 0; v < g.NumVertices; v++ {
		for _, h := range g.OutEdges(VertexID(v)) {
			line = append(strconv.AppendInt(line[:0], int64(v), 10), ' ')
			line = append(strconv.AppendUint(line, uint64(h.Dst), 10), ' ')
			line = append(strconv.AppendFloat(line, float64(h.Weight), 'g', -1, 32), '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseEdgeLine parses one line of the text edge-list format in place:
// "src dst [weight]", fields separated by white space, the weight
// defaulting to 1 and any fourth field ignored. Blank lines and '#'
// comments report ok false; a "# vertices N" comment with N > 0 also
// reports N. Errors carry no line number — the caller, who is counting,
// adds it.
//
// The line is scanned once. White space is unicode.IsSpace, looked up
// in a table for ASCII bytes; a rune is decoded only at a byte >= 0x80.
// Plain decimal fields convert as they are scanned; any other field goes
// to strconv, which yields its value or its error.
func ParseEdgeLine(line []byte) (e Edge, vertices int, ok bool, err error) {
	p := skipSpace(line, 0)
	if p == len(line) {
		return e, 0, false, nil
	}
	if line[p] == '#' {
		var hn int // a local: &vertices would move the result to the heap on every call
		if _, err := fmt.Sscanf(string(bytes.TrimSpace(line)), "# vertices %d", &hn); err != nil {
			hn = 0
		}
		return e, max(hn, 0), false, nil
	}
	src, p, srcErr := scanID(line, p)
	if p = skipSpace(line, p); p == len(line) {
		return e, 0, false, fmt.Errorf("want 'src dst [weight]', got %q", string(bytes.TrimSpace(line)))
	}
	dst, p, dstErr := scanID(line, p)
	if srcErr != nil {
		return e, 0, false, fmt.Errorf("bad src: %v", srcErr)
	}
	if dstErr != nil {
		return e, 0, false, fmt.Errorf("bad dst: %v", dstErr)
	}
	w := float32(1)
	if p = skipSpace(line, p); p < len(line) {
		if w, err = scanWeight(line, p); err != nil {
			return e, 0, false, fmt.Errorf("bad weight: %v", err)
		}
	}
	return Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: w}, 0, true, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace returns the offset of the first non-space rune at or after p.
func skipSpace(line []byte, p int) int {
	for p < len(line) {
		if c := line[p]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			p++
		} else if sp, n := runeSpace(line[p:]); sp {
			p += n
		} else {
			break
		}
	}
	return p
}

// fieldEnd returns the offset of the first white-space rune at or after p.
func fieldEnd(line []byte, p int) int {
	for p < len(line) {
		if c := line[p]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			p++
		} else if sp, n := runeSpace(line[p:]); !sp {
			p += n
		} else {
			break
		}
	}
	return p
}

// runeSpace decodes the rune b starts with, reporting whether it is
// white space, and its width.
func runeSpace(b []byte) (bool, int) {
	r, n := utf8.DecodeRune(b)
	return unicode.IsSpace(r), n
}

// endsField reports whether a field ends at p on the inline paths: at
// the end of the line or at an ASCII space. A field that ends at any
// other space goes to strconv, which sees the same field.
func endsField(line []byte, p int) bool {
	return p == len(line) || line[p] < utf8.RuneSelf && asciiSpace[line[p]]
}

// scanID reads the field at p as strconv.ParseUint(field, 10, 32) does
// and returns the field's end with it. Up to nine digits cannot
// overflow 32 bits and convert inline.
func scanID(line []byte, p int) (uint64, int, error) {
	start := p
	var v uint64
	for p < len(line) && p-start < 9 && line[p]-'0' <= 9 {
		v = v*10 + uint64(line[p]-'0')
		p++
	}
	if p > start && endsField(line, p) {
		return v, p, nil
	}
	end := fieldEnd(line, p)
	v, err := strconv.ParseUint(string(line[start:end]), 10, 32) // strconv clones its input into errors, so this does not escape
	return v, end, err
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanWeight reads the field at p as strconv.ParseFloat(field, 32) does.
// A plain decimal "ddd.ddd" of at most 15 digits is m/10^k with
// m < 2^53 and k <= 15, so one float64 division rounds it correctly
// (Clinger's fast path). Rounding that to float32 again matches rounding
// the decimal to float32 once unless the float64 sits exactly halfway
// between two float32s — then, and for every other spelling, strconv
// decides.
func scanWeight(line []byte, p int) (float32, error) {
	start := p
	var m uint64
	digits, frac := 0, -1
	for ; p < len(line); p++ {
		if c := line[p]; c-'0' <= 9 {
			m = m*10 + uint64(c-'0')
			digits++
		} else if c == '.' && frac < 0 {
			frac = digits
		} else {
			break
		}
	}
	if digits == 0 || digits > 15 || !endsField(line, p) {
		return parseFloat32(line[start:fieldEnd(line, p)])
	}
	k := 0
	if frac >= 0 {
		k = digits - frac
	}
	d := float64(m) / pow10[k]
	// Below float32's 23 fraction bits a float64 has 29 more; a halfway
	// point has exactly the top one of them set.
	if math.Float64bits(d)&(1<<29-1) == 1<<28 {
		return parseFloat32(line[start:p])
	}
	return float32(d), nil
}

func parseFloat32(s []byte) (float32, error) {
	w, err := strconv.ParseFloat(string(s), 32)
	return float32(w), err
}

// ReadEdgeList parses the text edge-list format. Lines starting with '#'
// are comments, except a "# vertices N" header which fixes the vertex
// count; without the header the count is max(id)+1. The weight column is
// optional and defaults to 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	// Edges go straight into the builder; its vertex count is set once
	// the input has fixed it.
	bld := &Builder{}
	n, maxID := 0, -1
	line := 0
	for sc.Scan() {
		line++
		e, hn, ok, err := ParseEdgeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if hn > 0 {
			n = hn
		}
		if !ok {
			continue
		}
		if e.Src != e.Dst {
			bld.edges = append(bld.edges, e)
		}
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
		maxID = max(maxID, int(e.Src), int(e.Dst))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	bld.n = n
	if maxID >= n {
		// A later header lowered the count below ids already seen.
		bld.edges = slices.DeleteFunc(bld.edges, func(e Edge) bool { return int(e.Src) >= n || int(e.Dst) >= n })
	}
	return bld.Build(), nil
}

// SaveEdgeList writes g to a file in edge-list format.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadEdgeList reads a graph from an edge-list file.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}
