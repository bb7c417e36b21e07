package core

import (
	"fmt"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// svertexPin is one superstep's random-read charges — b-pull's svertex
// reads, with whatever else the superstep random-read — and the simulated
// seconds they feed.
type svertexPin struct {
	ops, bytes, dev int64
	sim             float64
}

// svertexPins holds the per-superstep charges of each engine × program,
// the same under every fabric and parallelism.
var svertexPins = map[string][]svertexPin{
	"b-pull/pagerank": {
		{0, 0, 0, 0.034796443103265476},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
		{16998, 135984, 135168, 0.20500540548617235},
	},
	"hybrid/pagerank": {
		{0, 0, 0, 0.14538710392233783},
		{0, 0, 0, 0.13521100213269985},
		{4993, 39944, 135168, 0.18005182563263428},
		{4993, 39944, 135168, 0.2906424864517066},
		{0, 0, 0, 0.1538165039223378},
		{0, 0, 0, 0.1538165039223378},
		{0, 0, 0, 0.1538165039223378},
		{0, 0, 0, 0.1538165039223378},
		{0, 0, 0, 0.13521100213269985},
	},
	"b-pull/sssp": {
		{0, 0, 0, 0.034796443103265476},
		{50, 400, 4096, 0.0739755034014546},
		{9061, 72488, 131072, 0.20277785066090728},
		{13434, 107472, 135168, 0.20239049743607118},
		{8843, 70744, 135168, 0.19988901235131953},
		{4392, 35136, 135168, 0.1975403780600249},
		{1244, 9952, 135168, 0.19626807402821686},
		{192, 1536, 114688, 0.14902772522466304},
		{22, 176, 20480, 0.052599682115822916},
	},
	"hybrid/sssp": {
		{0, 0, 0, 0.1275538002937978},
		{0, 0, 0, 0.10384265071531754},
		{1632, 13056, 131072, 0.17782427080736918},
		{3817, 30536, 135168, 0.27653716145977025},
		{0, 0, 0, 0.13204965416117992},
		{0, 0, 0, 0.12412276851352186},
		{0, 0, 0, 0.11086856473930355},
		{0, 0, 0, 0.07673497320064097},
		{0, 0, 0, 0.048385899494995645},
	},
}

// TestSvertexChargesPinned pins Pull-Respond's svertex charges superstep
// by superstep: ops, logical bytes and device bytes of the RandRead class,
// and SimSeconds, for b-pull and hybrid × {PageRank, SSSP} × {Local, TCP}
// × Parallelism {1, 4}. The golden files print bytes per class only, so a
// page charged twice, or never, would pass them; it cannot pass this.
func TestSvertexChargesPinned(t *testing.T) {
	g := graph.GenRMAT(4000, 40000, 0.57, 0.19, 0.19, 4343)
	programs := []struct {
		name string
		mk   func() algo.Program
	}{
		{"pagerank", func() algo.Program { return algo.NewPageRank(0.85) }},
		{"sssp", func() algo.Program { return algo.NewSSSP(0) }},
	}
	// Hybrid's buffer holds a whole superstep's messages, so it switches
	// to push and back (pagerank) or away for good (sssp).
	bufs := map[Engine]int{BPull: 400, Hybrid: 40000}
	for _, p := range programs {
		for _, e := range []Engine{BPull, Hybrid} {
			key := fmt.Sprintf("%s/%s", e, p.name)
			want := svertexPins[key]
			for _, tcp := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					cfg := Config{Workers: 3, MsgBuf: bufs[e], MaxSteps: 9, TCP: tcp, Parallelism: par}
					got := svertexCharges(runOne(t, g, p.mk(), cfg, e))
					label := fmt.Sprintf("%s tcp=%v p%d", key, tcp, par)
					if len(got) != len(want) {
						t.Errorf("%s: %d supersteps, want %d; this build charges\n%s", label, len(got), len(want), pinLiteral(key, got))
						continue
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s step %d: charged %+v, want %+v; this build charges\n%s", label, i+1, got[i], want[i], pinLiteral(key, got))
							break
						}
					}
				}
			}
		}
	}
}

func svertexCharges(res *metrics.JobResult) []svertexPin {
	out := make([]svertexPin, len(res.Steps))
	for i, s := range res.Steps {
		out[i] = svertexPin{s.IO.Ops[diskio.RandRead], s.IO.Bytes[diskio.RandRead], s.IO.Dev[diskio.RandRead], s.SimSeconds}
	}
	return out
}

// pinLiteral renders pins as the map entry that would accept them.
func pinLiteral(key string, pins []svertexPin) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t%q: {\n", key)
	for _, p := range pins {
		fmt.Fprintf(&b, "\t\t{%d, %d, %d, %v},\n", p.ops, p.bytes, p.dev, p.sim)
	}
	b.WriteString("\t},\n")
	return b.String()
}
