package core

import (
	"math"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// given runs a schedule spelled out in advance, one letter per superstep
// from superstep 1 (p push, b b-pull); past its end the last letter
// repeats. It emits the modes hybrid does, so its jobs build hybrid's
// stores.
type given struct {
	schedule
	spec string
}

func (g *given) emits() []Engine                     { return []Engine{BPull, Push} }
func (g *given) after(int, metrics.StepStats) Engine { return "" }

func (g *given) start(j *job) {
	g.fill(j, BPull)
	for t := range g.modes {
		if g.spec[min(max(t-1, 0), len(g.spec)-1)] == 'p' {
			g.modes[t] = Push
		}
	}
}

// runGiven runs prog under the schedule spec.
func runGiven(t *testing.T, g *graph.Graph, prog algo.Program, cfg Config, spec string) *metrics.JobResult {
	t.Helper()
	testScheduler = func() scheduler { return &given{spec: spec} }
	defer func() { testScheduler = nil }()
	return runOne(t, g, prog, cfg, Hybrid)
}

// stepSum adds the supersteps' simulated seconds in superstep order.
func stepSum(res *metrics.JobResult) float64 {
	var sum float64
	for _, s := range res.Steps {
		sum += s.SimSeconds
	}
	return sum
}

// optimalSchedule finds the schedule with the least simulated time, and
// the time it predicts. Superstep t's cost depends only on the pair
// (modes[t], modes[t+1]) — how it consumes and how it produces — so four
// runs price every pair at every superstep: all push, all b-pull, and the
// two alternations. A Viterbi pass over those prices, summed in superstep
// order, gives the optimum and its exact total. The returned schedule has
// one letter per superstep plus the last superstep's producing mode.
func optimalSchedule(t *testing.T, g *graph.Graph, prog algo.Program, cfg Config) (string, float64) {
	t.Helper()
	n := cfg.withDefaults().MaxSteps + 2
	alt := strings.Repeat("pb", n)
	// cost[i][a][b]: superstep i+1 consuming per "pb"[a] and producing per
	// "pb"[b].
	var cost [][2][2]float64
	for _, spec := range []string{"p", "b", alt[:n], alt[1 : n+1]} {
		res := runGiven(t, g, prog, cfg, spec)
		if cost == nil {
			cost = make([][2][2]float64, len(res.Steps))
		} else if len(res.Steps) != len(cost) {
			t.Fatalf("schedule %.8s… ran %d supersteps, another ran %d", spec, len(res.Steps), len(cost))
		}
		at := func(k int) int { return strings.IndexByte("pb", spec[min(k, len(spec)-1)]) }
		for i, s := range res.Steps {
			cost[i][at(i)][at(i+1)] = s.SimSeconds
		}
	}
	// best[m]: the cheapest prefix ending with the current superstep's
	// producing mode m, and the letters it took.
	best := [2]float64{}
	path := [2]string{"p", "b"}
	for i := range cost {
		var next [2]float64
		var nextPath [2]string
		for b := range 2 {
			next[b] = math.Inf(1)
			for a := range 2 {
				if c := best[a] + cost[i][a][b]; c < next[b] {
					next[b], nextPath[b] = c, path[a]+"pb"[b:b+1]
				}
			}
		}
		best, path = next, nextPath
	}
	if best[0] < best[1] {
		return path[0], best[0]
	}
	return path[1], best[1]
}

// TestOptimalScheduleIsExact pins the schedule cost model's contract: no
// state other than the two modes crosses a superstep boundary, so the
// optimal schedule's simulated time equals the Viterbi prediction bit for
// bit. It also scores hybrid's decisions against that optimum: hybrid can
// be no cheaper, and every schedule computes the same values.
func TestOptimalScheduleIsExact(t *testing.T) {
	type cell struct {
		name string
		g    *graph.Graph
		prog algo.Program
		cfg  Config
	}
	rmat := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 3)
	ds, err := graph.DatasetByName("wiki")
	if err != nil {
		t.Fatal(err)
	}
	wiki := ds.GenerateCached(0.05)
	base := Config{Workers: 4, MsgBuf: 150, MaxSteps: 10}
	var cells []cell
	profiles := []diskio.Profile{diskio.HDDLocal, diskio.SSDAmazon}
	for _, p := range profiles {
		for _, prog := range []algo.Program{algo.NewPageRank(0.85), algo.NewSSSP(0), algo.NewWCC(), algo.NewLPA()} {
			cfg := base
			cfg.Profile = p
			cells = append(cells, cell{"rmat/" + prog.Name() + "/" + p.Name, rmat, prog, cfg})
		}
		cells = append(cells, cell{"wiki/sssp/" + p.Name, wiki, algo.NewSSSP(0),
			Config{Workers: 5, MsgBuf: 500, MaxSteps: 30, Profile: p}})
	}
	for _, v := range []struct {
		name string
		mod  func(*Config)
	}{
		{"tcp-p4", func(c *Config) { c.TCP, c.Parallelism = true, 4 }},
		{"sender-combine", func(c *Config) { c.SenderCombine = true }},
		{"vertices-in-mem", func(c *Config) { c.VerticesInMemory = true }},
		{"in-memory", func(c *Config) { c.InMemory = true }},
		{"codec-lz", func(c *Config) { c.Codec = "lz" }},
	} {
		cfg := base
		v.mod(&cfg)
		cells = append(cells, cell{"rmat/sssp/" + v.name, rmat, algo.NewSSSP(0), cfg})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			opt, predicted := optimalSchedule(t, c.g, c.prog, c.cfg)
			res := runGiven(t, c.g, c.prog, c.cfg, opt)
			if got := stepSum(res); math.Float64bits(got) != math.Float64bits(predicted) {
				t.Fatalf("optimal schedule %s ran %v sim-s, Viterbi predicted %v", opt, got, predicted)
			}
			hyb := runOne(t, c.g, c.prog, c.cfg, Hybrid)
			for v := range hyb.Values {
				if math.Float64bits(res.Values[v]) != math.Float64bits(hyb.Values[v]) {
					t.Fatalf("vertex %d: %v under %s, %v under hybrid", v, res.Values[v], opt, hyb.Values[v])
				}
			}
			h := stepSum(hyb)
			if h < predicted {
				t.Fatalf("hybrid %v sim-s beats the optimum %v", h, predicted)
			}
			t.Logf("hybrid/opt %.3f: hybrid %s %.4f, opt %s %.4f",
				h/predicted, scheduleString(hyb.Steps), h, opt[:len(res.Steps)], predicted)
		})
	}
}
