// Package graph defines the directed-graph model used throughout
// HybridGraph: vertex identifiers, weighted edges, an in-memory builder
// used at load time, deterministic synthetic generators standing in for
// the paper's six real-world datasets, an edge-list text codec, and the
// range partitioner the paper uses to spread vertices across workers.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. The paper range-partitions vertices by id,
// so ids are dense integers in [0, NumVertices).
type VertexID uint32

// Edge is a directed, weighted edge. Weights matter only to SSSP; the other
// algorithms ignore them.
type Edge struct {
	Src    VertexID
	Dst    VertexID
	Weight float32
}

// Graph is an immutable directed graph in CSR-like form: Adj holds all
// out-edges grouped by source vertex, and Index[v]..Index[v+1] delimits
// vertex v's run. It is the in-memory staging representation produced by
// loading or generating a dataset, before the per-worker disk stores
// (adjacency list and VE-BLOCK) are built from it.
type Graph struct {
	NumVertices int
	Index       []int32 // len NumVertices+1; offsets into Adj
	Adj         []Half  // out-edges sorted by source
}

// Half is the destination half of an edge; the source is implied by the
// CSR position.
type Half struct {
	Dst    VertexID
	Weight float32
}

// NumEdges reports the total number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.Index[v+1] - g.Index[v])
}

// OutEdges returns the out-edge run of v. The slice aliases the graph's
// storage and must not be modified.
func (g *Graph) OutEdges(v VertexID) []Half {
	return g.Adj[g.Index[v]:g.Index[v+1]]
}

// AvgDegree reports the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(len(g.Adj)) / float64(g.NumVertices)
}

// MaxDegree reports the maximum out-degree, a proxy for skew.
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := 0; v < g.NumVertices; v++ {
		if d := g.OutDegree(VertexID(v)); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Builder accumulates edges and produces a Graph. Duplicate edges are kept
// (multigraphs are legal inputs for all four algorithms); self-loops are
// dropped, matching the usual cleaning applied to the paper's datasets.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph over n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records a directed edge. Out-of-range endpoints and self-loops
// are ignored.
func (b *Builder) AddEdge(src, dst VertexID, w float32) {
	if int(src) >= b.n || int(dst) >= b.n || src == dst {
		return
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// Len reports the number of edges recorded so far.
func (b *Builder) Len() int { return len(b.edges) }

// Build sorts the accumulated edges into CSR form and returns the graph.
// The builder may be reused afterwards but shares no storage with the
// result.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].Src != b.edges[j].Src {
			return b.edges[i].Src < b.edges[j].Src
		}
		return b.edges[i].Dst < b.edges[j].Dst
	})
	idx := make([]int32, b.n+1)
	for _, e := range b.edges {
		idx[e.Src+1]++
	}
	for i := 1; i <= b.n; i++ {
		idx[i] += idx[i-1]
	}
	adj := make([]Half, len(b.edges))
	for i, e := range b.edges {
		adj[i] = Half{Dst: e.Dst, Weight: e.Weight}
	}
	return &Graph{NumVertices: b.n, Index: idx, Adj: adj}
}

// Validate checks structural invariants of a Graph and returns an error
// describing the first violation, or nil.
func (g *Graph) Validate() error {
	if len(g.Index) != g.NumVertices+1 {
		return fmt.Errorf("graph: index length %d, want %d", len(g.Index), g.NumVertices+1)
	}
	if g.Index[0] != 0 {
		return fmt.Errorf("graph: index[0] = %d, want 0", g.Index[0])
	}
	if int(g.Index[g.NumVertices]) != len(g.Adj) {
		return fmt.Errorf("graph: index[n] = %d, want %d", g.Index[g.NumVertices], len(g.Adj))
	}
	for i := 0; i < g.NumVertices; i++ {
		if g.Index[i] > g.Index[i+1] {
			return fmt.Errorf("graph: index not monotone at %d", i)
		}
	}
	for i, h := range g.Adj {
		if int(h.Dst) >= g.NumVertices {
			return fmt.Errorf("graph: edge %d has out-of-range dst %d", i, h.Dst)
		}
	}
	return nil
}
