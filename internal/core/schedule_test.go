package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// scheduleString renders a run's per-superstep modes, one letter each:
// p for push, b for b-pull.
func scheduleString(steps []metrics.StepStats) string {
	var sb strings.Builder
	for _, s := range steps {
		sb.WriteByte(map[string]byte{string(Push): 'p', string(BPull): 'b'}[s.Mode])
	}
	return sb.String()
}

// TestRecoveredHybridKeepsSchedule: a recovered hybrid run follows the
// clean run's mode schedule step for step, with bit-identical Q^t, even
// when the crash lands within two supersteps of a switch — where the
// restored schedule, switch history and combining ratio all decide what
// the next supersteps do. The live-values policy (resume) is left out: it
// restarts from the crash-time values and runs fewer supersteps by design.
func TestRecoveredHybridKeepsSchedule(t *testing.T) {
	ds, err := graph.DatasetByName("wiki")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.GenerateCached(0.05)
	prog := algo.NewSSSP(0)
	base := Config{Workers: 5, MsgBuf: 500, MaxSteps: 30}
	clean := runOne(t, g, prog, base, Hybrid)
	modes := scheduleString(clean.Steps)
	var switches []int
	for i := 1; i < len(clean.Steps); i++ {
		if clean.Steps[i].Mode != clean.Steps[i-1].Mode {
			switches = append(switches, clean.Steps[i].Step)
		}
	}
	if !strings.Contains(modes, "bp") || !strings.Contains(modes, "pb") {
		t.Fatalf("clean schedule %s does not switch both ways", modes)
	}
	var crashAt []int
	for _, s := range clean.Steps {
		for _, sw := range switches {
			if d := s.Step - sw; d >= -2 && d <= 2 {
				crashAt = append(crashAt, s.Step)
				break
			}
		}
	}
	t.Logf("clean schedule %s, switches at %v, crashes at %v", modes, switches, crashAt)
	for _, policy := range []string{"scratch", "checkpoint", "confined", "reassign"} {
		for _, step := range crashAt {
			t.Run(fmt.Sprintf("%s/crash@%d", policy, step), func(t *testing.T) {
				cfg := base
				cfg.Recovery = policy
				cfg.CheckpointEvery = 2
				cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: step, Worker: 1})
				res := runOne(t, g, prog, cfg, Hybrid)
				if res.Restarts != 1 {
					t.Fatalf("Restarts = %d, want 1", res.Restarts)
				}
				if got := scheduleString(res.Steps); got != modes {
					t.Fatalf("recovered schedule %s, clean %s", got, modes)
				}
				for i, s := range res.Steps {
					if math.Float64bits(s.Qt) != math.Float64bits(clean.Steps[i].Qt) {
						t.Fatalf("step %d: Qt %v, clean %v", s.Step, s.Qt, clean.Steps[i].Qt)
					}
				}
			})
		}
	}
}

// TestBadEngineLeavesNoTrace: an engine the job cannot run is rejected
// before anything observable happens — no job_start line in the journal,
// no work directory.
func TestBadEngineLeavesNoTrace(t *testing.T) {
	g := graph.GenUniform(100, 500, 13)
	for _, c := range []struct {
		name   string
		engine Engine
		prog   algo.Program
		policy string
	}{
		{"unknown engine", Engine("nope"), algo.NewPageRank(0.85), ""},
		{"pushM over LPA", PushM, algo.NewLPA(), ""},
		{"pull under confined", Pull, algo.NewPageRank(0.85), "confined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var journal bytes.Buffer
			dir := filepath.Join(t.TempDir(), "work")
			cfg := Config{Workers: 2, MaxSteps: 3, Recovery: c.policy, TraceWriter: &journal, WorkDir: dir}
			if _, err := Run(g, c.prog, cfg, c.engine); err == nil {
				t.Fatal("Run accepted the job")
			}
			if journal.Len() > 0 {
				t.Fatalf("the journal holds %q", journal.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("the work directory exists (stat: %v)", err)
			}
		})
	}
}
