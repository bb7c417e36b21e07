package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata golden files from this build instead of comparing against them")

// goldenLines renders everything about one job that must not move when the
// message path is reworked: the value bits, and per superstep the mode,
// class-tagged disk snapshot, wire bytes, Eq. (7)/(8) parts, peak memory
// and Q^t bits.
func goldenLines(label string, res *metrics.JobResult) []string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	out := []string{fmt.Sprintf("%s values=%016x steps=%d", label, h.Sum64(), len(res.Steps))}
	for _, s := range res.Steps {
		out = append(out, fmt.Sprintf("%s step=%d mode=%s io=%v net=%d parts=%v mem=%d qt=%016x",
			label, s.Step, s.Mode, s.IO, s.NetBytes, s.Parts, s.MemBytes, math.Float64bits(s.Qt)))
	}
	return out
}

// TestGoldenIdentity pins the engines to a file generated at the commit
// before the flat message path went in (go test ./internal/core -run
// TestGoldenIdentity -update-golden) and committed unmodified: one seeded
// graph × {PageRank, SSSP} × {push, b-pull, hybrid} × {Local, TCP} ×
// Parallelism {1, 4}, hybrid also at a message buffer large enough that
// it switches every other superstep. Wall clock and physical bytes are
// the only things a buffer-ownership change may move.
func TestGoldenIdentity(t *testing.T) {
	g := graph.GenRMAT(1500, 15000, 0.57, 0.19, 0.19, 4242)
	programs := []struct {
		name string
		mk   func() algo.Program
	}{
		{"pagerank", func() algo.Program { return algo.NewPageRank(0.85) }},
		{"sssp", func() algo.Program { return algo.NewSSSP(0) }},
	}
	var lines []string
	for _, p := range programs {
		for _, e := range []Engine{Push, BPull, Hybrid} {
			bufs := []int{150}
			if e == Hybrid {
				bufs = append(bufs, 6000)
			}
			for _, buf := range bufs {
				for _, tcp := range []bool{false, true} {
					for _, par := range []int{1, 4} {
						fabric := "local"
						if tcp {
							fabric = "tcp"
						}
						label := fmt.Sprintf("%s/%s/b%d/%s/p%d", p.name, e, buf, fabric, par)
						// A 100-message sending threshold puts several packets and
						// a partial tail on every worker pair each superstep.
						cfg := Config{Workers: 3, MsgBuf: buf, MaxSteps: 9, SendThreshold: 1200,
							TCP: tcp, Parallelism: par}
						lines = append(lines, goldenLines(label, runOne(t, g, p.mk(), cfg, e))...)
					}
				}
			}
		}
	}
	checkGolden(t, "golden_identity.txt", lines)
}

// checkGolden compares lines against testdata/<name>, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%d golden lines, this build produced %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Fatalf("line %d differs from the golden file:\n got  %s\n want %s", i+1, lines[i], wantLines[i])
		}
	}
}
