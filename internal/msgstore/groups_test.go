package msgstore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

// referenceLists keeps one slice per vertex in the order msgs lists them.
func referenceLists(msgs []comm.Msg) map[graph.VertexID][]float64 {
	m := make(map[graph.VertexID][]float64)
	for _, msg := range msgs {
		m[msg.Dst] = append(m[msg.Dst], msg.Val)
	}
	return m
}

// checkGroups holds g to the reference bit for bit, and to the layout
// contract: ascending destinations, no empty group, every Vals a window of
// one array in group order.
func checkGroups(t *testing.T, label string, g Groups, want map[graph.VertexID][]float64) {
	t.Helper()
	if len(g) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(g), len(want))
	}
	var total int64
	for i, gr := range g {
		if i > 0 && g[i-1].Dst >= gr.Dst {
			t.Fatalf("%s: group %d dst %d follows dst %d", label, i, gr.Dst, g[i-1].Dst)
		}
		if i > 0 && unsafe.Add(unsafe.Pointer(unsafe.SliceData(g[i-1].Vals)), 8*len(g[i-1].Vals)) != unsafe.Pointer(unsafe.SliceData(gr.Vals)) {
			t.Fatalf("%s: group %d does not start where group %d ends: not one flat array", label, i, i-1)
		}
		ref := want[gr.Dst]
		if len(gr.Vals) == 0 || len(gr.Vals) != len(ref) {
			t.Fatalf("%s: dst %d has %d values, want %d", label, gr.Dst, len(gr.Vals), len(ref))
		}
		for k := range ref {
			if math.Float64bits(gr.Vals[k]) != math.Float64bits(ref[k]) {
				t.Fatalf("%s: dst %d value %d = %x, reference %x", label, gr.Dst, k,
					math.Float64bits(gr.Vals[k]), math.Float64bits(ref[k]))
			}
		}
		total += int64(len(gr.Vals))
	}
	if g.Msgs() != total {
		t.Fatalf("%s: Msgs() = %d, groups hold %d", label, g.Msgs(), total)
	}
	// The cursor finds exactly the groups, visiting ids in ascending order.
	cur := g.Seek(0)
	for _, gr := range g {
		if gr.Dst > 0 {
			if v := cur.Vals(gr.Dst - 1); v != nil && want[gr.Dst-1] == nil {
				t.Fatalf("%s: cursor invented messages for %d", label, gr.Dst-1)
			}
		}
		if v := cur.Vals(gr.Dst); len(v) != len(gr.Vals) {
			t.Fatalf("%s: cursor returned %d values for %d, want %d", label, len(v), gr.Dst, len(gr.Vals))
		}
	}
}

// awkwardValues are the floats == cannot tell apart or compare: NaNs of several payloads, both zeros, infinities.
var awkwardValues = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 1, 0.5,
}

func groupCases() map[string][]comm.Msg {
	rng := rand.New(rand.NewSource(5))
	cases := map[string][]comm.Msg{
		"empty":  nil,
		"single": {{Dst: 7, Val: 3}},
		"whole id range": {
			{Dst: math.MaxUint32, Val: 1}, {Dst: 0, Val: 2}, {Dst: 1 << 31, Val: 3}},
	}
	var one, nan, dense, wide []comm.Msg
	for i := 0; i < 500; i++ {
		one = append(one, comm.Msg{Dst: 42, Val: rng.NormFloat64()})
		nan = append(nan, comm.Msg{Dst: graph.VertexID(rng.Intn(5)), Val: awkwardValues[rng.Intn(len(awkwardValues))]})
	}
	for i := 0; i < 5000; i++ {
		dense = append(dense, comm.Msg{Dst: graph.VertexID(1000 + rng.Intn(700)), Val: float64(rng.Intn(50))})
		wide = append(wide, comm.Msg{Dst: graph.VertexID(rng.Uint32()) &^ 0xff00, Val: rng.Float64()})
	}
	cases["one vertex"] = one
	cases["nan and zero"] = nan
	cases["dense"] = dense
	cases["wide ids"] = wide
	cases["sorted already"] = slices.Clone(dense)
	slices.SortStableFunc(cases["sorted already"], func(a, b comm.Msg) int { return int(a.Dst) - int(b.Dst) })
	return cases
}

// senderMajorLists is the delivery-order contract spelled out: one list
// per (destination, sender) in that sender's arrival order, a
// destination's lists concatenated by ascending sender.
func senderMajorLists(streams map[int][]comm.Msg) map[graph.VertexID][]float64 {
	senders := make([]int, 0, len(streams))
	for from := range streams {
		senders = append(senders, from)
	}
	sort.Ints(senders)
	want := make(map[graph.VertexID][]float64)
	for _, from := range senders {
		for _, m := range streams[from] {
			want[m.Dst] = append(want[m.Dst], m.Val)
		}
	}
	return want
}

// poison overwrites every message buffer the inbox owns, and the groups it
// last handed out, up to capacity: whatever the next drain returns must
// have been written by that drain.
func poison(b *Inbox, last Groups) {
	nan := math.Float64frombits(0x7ff8dead00000000)
	for _, buf := range [][]comm.Msg{b.mem[:cap(b.mem)], b.ordered[:cap(b.ordered)], b.grouper.tmp[:cap(b.grouper.tmp)]} {
		for i := range buf {
			buf[i] = comm.Msg{Dst: 0xdeadbeef, Val: nan}
		}
	}
	for i := range b.grouper.vals[:cap(b.grouper.vals)] {
		b.grouper.vals[:cap(b.grouper.vals)][i] = nan
	}
	for i := range b.readBack[:cap(b.readBack)] {
		b.readBack[:cap(b.readBack)][i] = 0xff
	}
	for i := range last {
		last[i].Dst = 0xdeadbeef
	}
}

// deliver adds every sender's stream to b: whole and highest sender first
// — the arrival order furthest from delivery order — or, with an rng, in
// random chunks from random senders.
func deliver(t *testing.T, b *Inbox, streams map[int][]comm.Msg, rng *rand.Rand) {
	t.Helper()
	senders := make([]int, 0, len(streams))
	for from := range streams {
		senders = append(senders, from)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(senders)))
	if rng == nil {
		for _, from := range senders {
			if err := b.AddFrom(from, streams[from]); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	left := make([][]comm.Msg, len(senders))
	for i, from := range senders {
		left[i] = streams[from]
	}
	for len(senders) > 0 {
		i := rng.Intn(len(senders))
		k := min(1+rng.Intn(40), len(left[i]))
		if err := b.AddFrom(senders[i], left[i][:k]); err != nil {
			t.Fatal(err)
		}
		if left[i] = left[i][k:]; len(left[i]) == 0 {
			senders, left = slices.Delete(senders, i, i+1), slices.Delete(left, i, i+1)
		}
	}
}

// A drain's lists are a property of what each sender sent, not of how the
// senders' packets interleaved: the same per-sender streams, delivered in
// three different interleavings to one inbox — in memory and spilled, raw
// and compressed, over dense and over sparse id ranges, its buffers
// poisoned between drains — drain to the reference bit for bit each time,
// and so does what Pending lists once a restore has re-added it.
func TestDrainIsSenderMajor(t *testing.T) {
	lz, err := codec.Lookup("lz")
	if err != nil {
		t.Fatal(err)
	}
	var sawDense, sawSparse bool
	for name, msgs := range groupCases() {
		n := len(msgs)
		rng := rand.New(rand.NewSource(int64(n)))
		streams := make(map[int][]comm.Msg)
		lo, hi := graph.VertexID(math.MaxUint32), graph.VertexID(0)
		for _, m := range msgs {
			from := []int{0, 2, 5}[rng.Intn(3)]
			streams[from] = append(streams[from], m)
			lo, hi = min(lo, m.Dst), max(hi, m.Dst)
		}
		want := senderMajorLists(streams)
		if n > 3 {
			dense := int64(hi)-int64(lo) < denseSpan*int64(n)
			sawDense, sawSparse = sawDense || dense, sawSparse || !dense
		}
		for _, cdc := range []codec.Codec{nil, lz} {
			for _, capacity := range []int{0, -1, 1, n / 10} {
				var ct diskio.Counter
				b := NewInbox(filepath.Join(t.TempDir(), "s.dat"), &ct, capacity, cdc)
				for cycle := 0; cycle < 3; cycle++ {
					label := fmt.Sprintf("%s cap %d lz %v cycle %d", name, capacity, cdc != nil, cycle)
					if cycle == 0 {
						deliver(t, b, streams, nil)
					} else {
						deliver(t, b, streams, rng)
					}
					wantSpilled := int64(0)
					if capacity != 0 {
						wantSpilled = int64(n - min(n, max(capacity, 0)))
					}
					if b.Spilled() != wantSpilled || b.Received() != int64(n) {
						t.Fatalf("%s: spilled %d received %d, want %d and %d", label, b.Spilled(), b.Received(), wantSpilled, n)
					}
					pending, err := b.Pending()
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.Drain()
					if err != nil {
						t.Fatal(err)
					}
					checkGroups(t, label, got, want)
					restored := NewInbox(filepath.Join(t.TempDir(), "r.dat"), &ct, capacity, cdc)
					if err := restored.AddAll(pending); err != nil {
						t.Fatal(err)
					}
					again, err := restored.Drain()
					if err != nil {
						t.Fatal(err)
					}
					checkGroups(t, label+" restored", again, want)
					poison(b, got)
				}
			}
		}
	}
	if !sawDense || !sawSparse {
		t.Fatalf("cases cover dense=%v sparse=%v drains, want both", sawDense, sawSparse)
	}
}

// Group without a value sort is b-pull's and the pull baseline's merge:
// arrival order kept per vertex, or folded left to right.
func TestGrouperStableAndFolds(t *testing.T) {
	var gr Grouper
	for name, msgs := range groupCases() {
		checkGroups(t, name, gr.Group(slices.Clone(msgs), nil), referenceLists(msgs))

		sub := func(a, b float64) float64 { return a - b } // order-sensitive on purpose
		want := make(map[graph.VertexID][]float64)
		for dst, vals := range referenceLists(msgs) {
			v := vals[0]
			for _, x := range vals[1:] {
				v = sub(v, x)
			}
			want[dst] = []float64{v}
		}
		checkGroups(t, name+"/folded", gr.Group(slices.Clone(msgs), sub), want)
	}
}

// Building groups costs O(messages): once its buffers have grown, a
// Grouper allocates nothing — in particular nothing proportional to the
// id span of a three-message batch.
func TestGrouperAllocatesNothingWhenWarm(t *testing.T) {
	cases := groupCases()
	for _, name := range []string{"whole id range", "wide ids", "dense"} {
		msgs := cases[name]
		var gr Grouper
		work := make([]comm.Msg, len(msgs))
		allocs := testing.AllocsPerRun(20, func() {
			copy(work, msgs)
			gr.Group(work, nil)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per batch in a warm Grouper", name, allocs)
		}
	}
}

// BenchmarkInboxDrain is one superstep's receive side: 150 000 messages to
// 10 000 vertices from two senders whose packets interleave, added and
// drained — in memory, and with all but a tenth spilled.
func BenchmarkInboxDrain(b *testing.B) {
	const n, packet = 150000, 1000
	rng := rand.New(rand.NewSource(1))
	msgs := make([]comm.Msg, n)
	for i := range msgs {
		msgs[i] = comm.Msg{Dst: graph.VertexID(5000 + rng.Intn(10000)), Val: rng.Float64()}
	}
	for name, capacity := range map[string]int{"memory": 0, "spill": n / 10} {
		b.Run(name, func(b *testing.B) {
			in := NewInbox(filepath.Join(b.TempDir(), "s.dat"), &diskio.Counter{}, capacity, nil)
			b.ReportAllocs()
			b.ResetTimer()
			var groups int
			for i := 0; i < b.N; i++ {
				for off := 0; off < n; off += packet {
					if err := in.AddFrom(off/packet%2, msgs[off:off+packet]); err != nil {
						b.Fatal(err)
					}
				}
				out, err := in.Drain()
				if err != nil {
					b.Fatal(err)
				}
				groups += len(out)
			}
			if groups == 0 {
				b.Fatal("nothing drained")
			}
		})
	}
}
