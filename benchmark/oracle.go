package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"hybridgraph"
)

// The oracle is a synchronous in-memory reference for the two programs
// the workloads run. It shares no code with the engines: no partitions,
// no blocks, no fabric, no disk and no vertex-program interface — only
// the textbook recurrences over the CSR graph. Superstep 1 of a job
// initialises values, so a job capped at maxSteps supersteps applies the
// recurrence maxSteps-1 times.

// oraclePageRank iterates r' = (1-d)/n + d * sum over in-edges of
// r[u]/outdeg[u], starting from the uniform vector.
func oraclePageRank(g *hybridgraph.Graph, damping float64, maxSteps int) []float64 {
	n := g.NumVertices
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	next := make([]float64, n)
	for t := 2; t <= maxSteps; t++ {
		for v := range next {
			next[v] = 0
		}
		for u := 0; u < n; u++ {
			out := g.OutEdges(hybridgraph.VertexID(u))
			if len(out) == 0 {
				continue
			}
			share := rank[u] / float64(len(out))
			for _, h := range out {
				next[h.Dst] += share
			}
		}
		for v := range next {
			next[v] = (1-damping)/float64(n) + damping*next[v]
		}
		rank, next = next, rank
	}
	return rank
}

// oracleSSSP is frontier Bellman-Ford with BSP timing: the vertices whose
// distance improved in superstep t-1 relax their out-edges in superstep
// t, every relaxation of a superstep reads the distances of the previous
// one, and the job stops at maxSteps or when nothing improved.
func oracleSSSP(g *hybridgraph.Graph, source hybridgraph.VertexID, maxSteps int) []float64 {
	n := g.NumVertices
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	frontier := []hybridgraph.VertexID{source}
	best := make(map[hybridgraph.VertexID]float64)
	for t := 2; t <= maxSteps && len(frontier) > 0; t++ {
		for k := range best {
			delete(best, k)
		}
		for _, u := range frontier {
			for _, h := range g.OutEdges(u) {
				d := dist[u] + float64(h.Weight)
				if old, ok := best[h.Dst]; !ok || d < old {
					best[h.Dst] = d
				}
			}
		}
		frontier = frontier[:0]
		for v, d := range best {
			if d < dist[v] {
				dist[v] = d
				frontier = append(frontier, v)
			}
		}
	}
	return dist
}

// oracleTolerance is relative: push and b-pull sum PageRank shares in
// different orders, so their last few ulps differ from the oracle's.
const oracleTolerance = 1e-9

// checkValues compares a job's values with the oracle's.
func checkValues(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(got), len(want))
	}
	for v := range want {
		a, b := got[v], want[v]
		if a == b {
			continue
		}
		if d := math.Abs(a - b); !(d <= oracleTolerance*math.Max(math.Abs(a), math.Abs(b))) {
			return fmt.Errorf("vertex %d: got %v, oracle %v", v, a, b)
		}
	}
	return nil
}

// hashValues is FNV-64a over the value bits: one engine must produce the
// same bits every round.
func hashValues(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
