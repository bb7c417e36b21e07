package metrics

import "hybridgraph/internal/diskio"

// CPU cost model constants, in seconds per unit of work. They are
// calibrated so that, at the paper's scales, the sufficient-memory
// runtimes of Fig. 7 are compute/communication dominated while the
// limited-memory runtimes of Figs. 8-10 are I/O dominated — the regime
// split the paper's analysis rests on. The spill-sort charge models
// Giraph's sort-merge handling of disk-resident messages, which the paper
// blames for push not improving on the amazon cluster's weak virtual CPUs
// (Section 6.1).
const (
	CostPerMessage = 300e-9 // generate/deserialise/apply one message
	CostPerEdge    = 50e-9  // scan one edge
	CostPerUpdate  = 200e-9 // one update()/compute() invocation
	// CostPerSpilledMsg covers Giraph's sort-merge handling of a
	// disk-resident message (serialisation, comparison, merge). It is
	// deliberately heavy — comparable to the HDD transfer cost of the
	// message — because the paper observes push does *not* improve on the
	// SSD cluster: "Giraph employs a sort-merge mechanism ... sorting is
	// computation-intensive" and the amazon nodes have weak virtual CPUs.
	CostPerSpilledMsg = 4e-6
)

// CPUWork tallies one worker's modelled compute during a superstep.
type CPUWork struct {
	Messages int64
	Edges    int64
	Updates  int64
	Spilled  int64
}

// Seconds converts the tallied work into modelled seconds under profile p
// (whose CPUFactor captures physical versus virtual CPUs).
func (w CPUWork) Seconds(p diskio.Profile) float64 {
	s := float64(w.Messages)*CostPerMessage +
		float64(w.Edges)*CostPerEdge +
		float64(w.Updates)*CostPerUpdate +
		float64(w.Spilled)*CostPerSpilledMsg
	return s * p.CPUFactor
}
