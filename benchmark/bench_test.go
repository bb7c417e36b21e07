package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"hybridgraph"
)

// TestScaledPassPrintsEveryMetric runs all four workloads on a 600-vertex
// graph, one round each, both passes, and holds the printed metrics
// against BENCHMARK.json: every listed name exactly once per workload,
// nothing unlisted, every value a finite non-negative number.
func TestScaledPassPrintsEveryMetric(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if _, dup := units[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	if len(spec.EndToEnd) != 10 || len(spec.PerLayer) != 68 {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, want 10 and 68",
			len(spec.EndToEnd), len(spec.PerLayer))
	}

	opt := options{seed: 7, rounds: 1, trace: "both",
		out: filepath.Join(t.TempDir(), "results.json"),
		size: sizing{vertices: 600, edges: 6000,
			probeFor: time.Millisecond, probeRepeats: 1, setupRepeats: 1}}
	for _, wl := range spec.Workloads {
		opt.workloads = append(opt.workloads, wl.Name)
	}
	res, err := run(&opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 {
		t.Fatalf("ran %d workloads, want 4", len(res.Workloads))
	}
	var printed bytes.Buffer
	printResults(&printed, res)

	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	sections := strings.Split(printed.String(), "\n== ")[1:]
	for i, wr := range res.Workloads {
		if wr.JobsFailed != 0 || wr.JobsAttempted != 9 {
			t.Errorf("%s: %d of %d jobs failed %v, want 0 of 9", wr.Name, wr.JobsFailed, wr.JobsAttempted, wr.Failures)
		}
		seen := map[string]int{}
		for _, line := range strings.Split(sections[i], "\n")[2:] {
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			seen[f[0]]++
			if !nameOK.MatchString(f[0]) {
				t.Errorf("%s: printed name %q", wr.Name, f[0])
			}
			if want, ok := units[f[0]]; !ok {
				t.Errorf("%s: printed %s, which BENCHMARK.json does not list", wr.Name, f[0])
			} else if f[2] != want {
				t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", wr.Name, f[0], f[2], want)
			}
		}
		for name := range units {
			if seen[name] != 1 {
				t.Errorf("%s: %s printed %d times, want once", wr.Name, name, seen[name])
			}
			s, ok := wr.EndToEnd[name]
			if !ok {
				s = wr.PerLayer[name]
			}
			if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) || s.Median < 0 || s.N < 1 {
				t.Errorf("%s: %s = %v over %d samples", wr.Name, name, s.Median, s.N)
			}
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(opt.out), "trace-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", wr.Name, err)
		}
		if line := driverLine(&res.Workloads[i]); !json.Valid([]byte(line)) {
			t.Errorf("%s: driver line is not JSON: %s", wr.Name, line)
		}
	}
	left, err := filepath.Glob(filepath.Join(filepath.Dir(opt.out), "scratch-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the committed file and the
// program's own tables (names, units, directions, bounds, workloads,
// command) from drifting apart: the file is what -spec prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, program any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &program); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, program) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
}

// fiveVertexGraph is small enough to work by hand:
//
//	0 -1-> 1 -2-> 2 -1-> 3 -7-> 0,   0 -4-> 2,   4 isolated
func fiveVertexGraph(t *testing.T) *hybridgraph.Graph {
	g, err := hybridgraph.ParseEdgeList([]byte("# vertices 5\n0 1 1\n0 2 4\n1 2 2\n2 3 1\n3 0 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOracleOnHandComputedGraph(t *testing.T) {
	g := fiveVertexGraph(t)
	inf := math.Inf(1)
	for _, c := range []struct {
		name     string
		got      []float64
		expected []float64
	}{
		// One application of r' = 0.03 + 0.85 * sum(r[u]/outdeg[u]) from 0.2 each.
		{"pagerank 2 supersteps", oraclePageRank(g, 0.85, 2), []float64{0.2, 0.115, 0.285, 0.2, 0.03}},
		// A second: vertex 2 receives 0.1 + 0.115, vertex 3 receives 0.285.
		{"pagerank 3 supersteps", oraclePageRank(g, 0.85, 3), []float64{0.2, 0.115, 0.21275, 0.27225, 0.03}},
		// BSP timing: in superstep 3 vertex 3 still hears vertex 2's first distance, 4.
		{"sssp capped at 3 supersteps", oracleSSSP(g, 0, 3), []float64{0, 1, 3, 5, inf}},
		{"sssp to convergence", oracleSSSP(g, 0, 30), []float64{0, 1, 3, 4, inf}},
	} {
		if err := checkValues(c.got, c.expected); err != nil {
			t.Errorf("%s: %v (got %v)", c.name, err, c.got)
		}
	}
	if checkValues([]float64{1, 2}, []float64{1, 2.0000001}) == nil {
		t.Error("checkValues accepted a 5e-8 relative miss")
	}
	if hashValues([]float64{1, 2}) == hashValues([]float64{2, 1}) {
		t.Error("hashValues ignores order")
	}
}

func TestVerdict(t *testing.T) {
	wall := metricSpec{Name: "push_wall_s", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "veblock.scan_edges_per_s", Better: "higher"}
	count := metricSpec{Name: "core.push.io_bytes", Better: "lower", Exact: true}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{wall, tight(1), tight(1.05), "same"},
		{wall, tight(1), tight(1.2), "worse"},
		{wall, tight(1), tight(0.8), "better"},
		{wall, summary{Median: 1, Q1: 0.9, Q3: 1.1}, tight(1.2), "unresolved"},
		{rate, tight(100), tight(90), "worse"},
		{rate, tight(100), tight(101), "same"},
		{count, tight(1000), tight(1000), "same"},
		{count, tight(1000), tight(1001), "worse"},
	} {
		if got, _, _ := verdict(c.m, c.a, c.b, true); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
