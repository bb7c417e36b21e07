// Package veblock implements VE-BLOCK (Section 4.1), the graph storage
// that makes block-centric pulling I/O-efficient: vertices are
// range-partitioned into V fixed-size Vblocks; the out-edges of Vblock b_j
// are split into V variable-size Eblocks g_j1..g_jV by destination block,
// and within each Eblock the edges sharing a source vertex are clustered
// into a fragment carrying (svertex id, edge count) auxiliary data. Each
// Vblock also carries metadata X_j: vertex count, total in/out degree, a
// destination bitmap x_j, and a responding indicator res.
package veblock

import (
	"fmt"

	"hybridgraph/internal/graph"
)

// Layout is the global Vblock geometry shared by every worker: which
// vertex range each of the V blocks covers and which worker owns it.
type Layout struct {
	Blocks      []graph.Partition // all V blocks, ascending by Lo, contiguous
	WorkerFirst []int             // len T+1; worker w owns blocks [WorkerFirst[w], WorkerFirst[w+1])
	blockOf     []int32           // vertex id → global block id
}

// NewLayout subdivides each worker partition into blocksPer[w] Vblocks.
// Partitions must be the contiguous output of graph.RangePartition.
func NewLayout(parts []graph.Partition, blocksPer []int) (*Layout, error) {
	if len(parts) != len(blocksPer) {
		return nil, fmt.Errorf("veblock: %d partitions but %d block counts", len(parts), len(blocksPer))
	}
	l := &Layout{WorkerFirst: make([]int, len(parts)+1)}
	for w, p := range parts {
		l.WorkerFirst[w] = len(l.Blocks)
		l.Blocks = append(l.Blocks, graph.BlockRanges(p, blocksPer[w])...)
	}
	l.WorkerFirst[len(parts)] = len(l.Blocks)
	for b, blk := range l.Blocks {
		for v := blk.Lo; v < blk.Hi; v++ {
			l.blockOf = append(l.blockOf, int32(b))
		}
	}
	return l, nil
}

// UniformLayout gives every worker the same number of Vblocks.
func UniformLayout(parts []graph.Partition, blocksPerWorker int) (*Layout, error) {
	bp := make([]int, len(parts))
	for i := range bp {
		bp[i] = blocksPerWorker
	}
	return NewLayout(parts, bp)
}

// NumBlocks reports V, the total number of Vblocks.
func (l *Layout) NumBlocks() int { return len(l.Blocks) }

// BlockOf returns the global id of the block containing v, or -1.
func (l *Layout) BlockOf(v graph.VertexID) int {
	if int(v) < len(l.blockOf) {
		return int(l.blockOf[v])
	}
	return -1
}

// OwnerOfBlock reports the worker owning global block b.
func (l *Layout) OwnerOfBlock(b int) int {
	for w := 0; w+1 < len(l.WorkerFirst); w++ {
		if b >= l.WorkerFirst[w] && b < l.WorkerFirst[w+1] {
			return w
		}
	}
	return -1
}

// WorkerBlocks reports the global ids of worker w's blocks.
func (l *Layout) WorkerBlocks(w int) (lo, hi int) {
	return l.WorkerFirst[w], l.WorkerFirst[w+1]
}

// BlocksCombinable computes worker w's Vblock count by Eq. (5):
// V_i = (2 n_i + n_i T) / B_i, the rule for algorithms whose messages
// combine (PageRank, SSSP). n is the worker's vertex count, t the number
// of workers, b the worker's message buffer capacity in messages.
func BlocksCombinable(n, t, b int) int {
	if b <= 0 {
		return 1
	}
	v := (2*n + n*t + b - 1) / b
	return clampBlocks(v, n)
}

// BlocksConcatOnly computes worker w's Vblock count by Eq. (6):
// V_i = Σ in-degree(u) / B_i, the rule for concatenate-only algorithms
// (LPA, SA), where buffering holds one value per in-edge.
func BlocksConcatOnly(inDegreeSum int64, b int, n int) int {
	if b <= 0 {
		return 1
	}
	v := int((inDegreeSum + int64(b) - 1) / int64(b))
	return clampBlocks(v, n)
}

func clampBlocks(v, n int) int {
	if v < 1 {
		v = 1
	}
	if n > 0 && v > n {
		v = n
	}
	return v
}
