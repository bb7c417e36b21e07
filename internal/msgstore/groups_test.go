package msgstore

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

// referenceLists is the drain this package had before Groups: a map of
// per-vertex slices in arrival order, each then sorted with
// sort.Float64s.
func referenceLists(msgs []comm.Msg, sortVals bool) map[graph.VertexID][]float64 {
	m := make(map[graph.VertexID][]float64)
	for _, msg := range msgs {
		m[msg.Dst] = append(m[msg.Dst], msg.Val)
	}
	if sortVals {
		for _, vals := range m {
			sort.Float64s(vals)
		}
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

// awkwardValues are the floats whose order sort.Float64s defines but ==
// cannot see: NaNs of several payloads, both zeros, infinities.
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

func TestDrainMatchesMapAndSortReference(t *testing.T) {
	for name, msgs := range groupCases() {
		n := len(msgs)
		for _, capacity := range []int{0, -1, 1, n / 10} {
			var ct diskio.Counter
			b := NewInbox(filepath.Join(t.TempDir(), "s.dat"), &ct, capacity, nil)
			// Two cycles through one inbox: the second runs in reused buffers.
			for cycle := 0; cycle < 2; cycle++ {
				half := n / 2
				if err := b.AddAll(msgs[:half]); err != nil {
					t.Fatal(err)
				}
				for _, m := range msgs[half:] {
					if err := b.Add(m); err != nil {
						t.Fatal(err)
					}
				}
				wantSpilled := int64(0)
				if capacity != 0 {
					wantSpilled = int64(n - min(n, max(capacity, 0)))
				}
				if b.Spilled() != wantSpilled {
					t.Fatalf("%s cap %d: spilled %d, want %d", name, capacity, b.Spilled(), wantSpilled)
				}
				got, err := b.Drain()
				if err != nil {
					t.Fatal(err)
				}
				checkGroups(t, name, got, referenceLists(msgs, true))
			}
		}
	}
}

// Group without a value sort is b-pull's and the pull baseline's merge:
// arrival order kept per vertex, or folded left to right.
func TestGrouperStableAndFolds(t *testing.T) {
	var gr Grouper
	for name, msgs := range groupCases() {
		checkGroups(t, name, gr.Group(slices.Clone(msgs), nil), referenceLists(msgs, false))

		sub := func(a, b float64) float64 { return a - b } // order-sensitive on purpose
		want := make(map[graph.VertexID][]float64)
		for dst, vals := range referenceLists(msgs, false) {
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
