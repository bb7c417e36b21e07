package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
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
// defaulting to 1. Blank lines and '#' comments report ok false; a
// "# vertices N" comment with N > 0 also reports N. Errors carry no line
// number — the caller, who is counting, adds it.
func ParseEdgeLine(line []byte) (e Edge, vertices int, ok bool, err error) {
	text := bytes.TrimSpace(line)
	if len(text) == 0 {
		return e, 0, false, nil
	}
	if text[0] == '#' {
		var hn int // a local: &vertices would move the result to the heap on every call
		if _, err := fmt.Sscanf(string(text), "# vertices %d", &hn); err != nil {
			hn = 0
		}
		return e, max(hn, 0), false, nil
	}
	var fields [3][]byte
	rest := text
	for i := range fields {
		end := bytes.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		fields[i] = rest[:end]
		rest = bytes.TrimLeftFunc(rest[end:], unicode.IsSpace)
	}
	if len(fields[1]) == 0 {
		return e, 0, false, fmt.Errorf("want 'src dst [weight]', got %q", string(text))
	}
	// strconv clones its input into errors, so the conversions don't escape.
	src, err := strconv.ParseUint(string(fields[0]), 10, 32)
	if err != nil {
		return e, 0, false, fmt.Errorf("bad src: %v", err)
	}
	dst, err := strconv.ParseUint(string(fields[1]), 10, 32)
	if err != nil {
		return e, 0, false, fmt.Errorf("bad dst: %v", err)
	}
	w := 1.0
	if len(fields[2]) > 0 {
		if w, err = strconv.ParseFloat(string(fields[2]), 32); err != nil {
			return e, 0, false, fmt.Errorf("bad weight: %v", err)
		}
	}
	return Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: float32(w)}, 0, true, nil
}

// ReadEdgeList parses the text edge-list format. Lines starting with '#'
// are comments, except a "# vertices N" header which fixes the vertex
// count; without the header the count is max(id)+1. The weight column is
// optional and defaults to 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	n := 0
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
		edges = append(edges, e)
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	bld := NewBuilder(n)
	for _, e := range edges {
		bld.AddEdge(e.Src, e.Dst, e.Weight)
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
