package msgstore

import (
	"cmp"
	"math/bits"
	"slices"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
)

// Group is the messages one destination vertex receives in a superstep.
type Group struct {
	Dst  graph.VertexID
	Vals []float64
}

// Groups is a batch of messages grouped by destination: one Group per
// vertex that received anything, ascending by Dst, every Vals a window of
// one flat backing array. It is what every engine hands to update() —
// push's drained inbox, b-pull's receiving buffer BR and the pull
// baseline's gathered values. A Groups belongs to the Grouper that built
// it and is valid until that Grouper groups again.
type Groups []Group

// Msgs reports the number of message values in the batch.
func (g Groups) Msgs() int64 {
	var n int64
	for i := range g {
		n += int64(len(g[i].Vals))
	}
	return n
}

// Seek returns a cursor positioned at the first group whose destination
// is at least v.
func (g Groups) Seek(v graph.VertexID) Cursor {
	i, _ := slices.BinarySearchFunc(g, v, func(gr Group, v graph.VertexID) int { return cmp.Compare(gr.Dst, v) })
	return Cursor{g: g, i: i}
}

// Cursor looks destinations up in ascending order, the order every vertex
// scan visits them in: a whole pass over a partition costs one step per
// vertex plus one per group, so each lookup is O(1) amortised.
type Cursor struct {
	g Groups
	i int
}

// Vals returns v's messages, nil when it received none. Successive calls
// must not go back to a smaller v.
func (c *Cursor) Vals(v graph.VertexID) []float64 {
	for c.i < len(c.g) && c.g[c.i].Dst < v {
		c.i++
	}
	if c.i < len(c.g) && c.g[c.i].Dst == v {
		return c.g[c.i].Vals
	}
	return nil
}

// Grouper turns message batches into Groups through buffers it keeps and
// reuses: building a batch allocates nothing once they have grown to the
// largest batch seen. The zero value is ready to use.
type Grouper struct {
	tmp     []comm.Msg // the radix sort's second buffer
	pos     []uint32   // the counting scatter's slot per destination id
	touched []uint64   // the dense fold's bitmap of destination ids holding a value
	vals    []float64  // the flat backing array
	groups  Groups
}

// Group groups msgs by destination, keeping each destination's values in
// the order they appear in msgs. combine, when non-nil, folds every
// destination's values left to right into one. The cost is O(len(msgs))
// whatever range the destination ids span. msgs is reordered in place.
func (gr *Grouper) Group(msgs []comm.Msg, combine func(a, b float64) float64) Groups {
	msgs = comm.StableSortByDst(msgs, &gr.tmp)
	// Sized once up front: appends below must never move the array the
	// groups already built point into. The distinct destinations are
	// counted first, so the headers grow once, and so do the values when
	// each destination folds to one.
	dsts := 0
	for i := range msgs {
		if i == 0 || msgs[i].Dst != msgs[i-1].Dst {
			dsts++
		}
	}
	if combine != nil {
		gr.vals = slices.Grow(gr.vals[:0], dsts)
	} else {
		gr.vals = slices.Grow(gr.vals[:0], len(msgs))
	}
	gr.groups = slices.Grow(gr.groups[:0], dsts)
	for lo := 0; lo < len(msgs); {
		hi := lo + 1
		for hi < len(msgs) && msgs[hi].Dst == msgs[lo].Dst {
			hi++
		}
		start := len(gr.vals)
		if combine != nil {
			v := msgs[lo].Val
			for _, m := range msgs[lo+1 : hi] {
				v = combine(v, m.Val)
			}
			gr.vals = append(gr.vals, v)
		} else {
			for _, m := range msgs[lo:hi] {
				gr.vals = append(gr.vals, m.Val)
			}
		}
		end := len(gr.vals)
		gr.groups = append(gr.groups, Group{Dst: msgs[lo].Dst, Vals: gr.vals[start:end:end]})
		lo = hi
	}
	return gr.groups
}

// scatter groups the arrival stream a — every destination within
// [lo, lo+span) — by counting on dst-lo: count, prefix and group headers,
// then the values scattered run by run in the order given, which a
// destination's values keep. Records are decoded where they lie, in
// memory or read back. The runs cover a exactly once; a is left as it was.
func (gr *Grouper) scatter(a *arrivals, order []run, lo graph.VertexID, span int) Groups {
	gr.pos = slices.Grow(gr.pos[:0], span)[:span]
	clear(gr.pos)
	for _, recs := range *a {
		for ; len(recs) >= recSize; recs = recs[recSize:] {
			gr.pos[comm.GetRecord(recs).Dst-lo]++
		}
	}
	n := a.len()
	gr.vals = slices.Grow(gr.vals[:0], n)[:n]
	gr.groups = slices.Grow(gr.groups[:0], min(n, span))
	next := uint32(0)
	for d, c := range gr.pos {
		if gr.pos[d] = next; c > 0 {
			gr.groups = append(gr.groups, Group{Dst: lo + graph.VertexID(d), Vals: gr.vals[next : next+c : next+c]})
			next += c
		}
	}
	for _, r := range order {
		for _, recs := range a.cut(r) {
			for ; len(recs) >= recSize; recs = recs[recSize:] {
				m := comm.GetRecord(recs)
				p := &gr.pos[m.Dst-lo]
				gr.vals[*p] = m.Val
				*p++
			}
		}
	}
	return gr.groups
}

// fold is scatter under a combiner: one pass over the runs in the order
// given folds each destination's values left to right into its slot, the
// value array indexed by dst-lo and a bitmap telling which slots hold a
// value; then the held slots are packed, ascending, to the front of the
// array. A destination's first value is kept as it is, so a single
// message reaches update() with its own bits.
func (gr *Grouper) fold(a *arrivals, order []run, lo graph.VertexID, span int, combine func(a, b float64) float64) Groups {
	gr.vals = slices.Grow(gr.vals[:0], span)[:span]
	words := (span + 63) / 64
	gr.touched = slices.Grow(gr.touched[:0], words)[:words]
	clear(gr.touched)
	for _, r := range order {
		for _, recs := range a.cut(r) {
			for ; len(recs) >= recSize; recs = recs[recSize:] {
				m := comm.GetRecord(recs)
				d := m.Dst - lo
				w, bit := &gr.touched[d/64], uint64(1)<<(d%64)
				if *w&bit != 0 {
					gr.vals[d] = combine(gr.vals[d], m.Val)
				} else {
					*w |= bit
					gr.vals[d] = m.Val
				}
			}
		}
	}
	dsts := 0
	for _, w := range gr.touched {
		dsts += bits.OnesCount64(w)
	}
	gr.groups = slices.Grow(gr.groups[:0], dsts)
	k := 0
	for i, w := range gr.touched {
		for ; w != 0; w &= w - 1 {
			d := i*64 + bits.TrailingZeros64(w)
			gr.vals[k] = gr.vals[d] // k <= d: the slots left of d are packed already
			gr.groups = append(gr.groups, Group{Dst: lo + graph.VertexID(d), Vals: gr.vals[k : k+1 : k+1]})
			k++
		}
	}
	gr.vals = gr.vals[:k]
	return gr.groups
}
