package core

import (
	"math"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/vertexfile"
)

func testPrograms(t *testing.T) map[string]algo.Program {
	t.Helper()
	return map[string]algo.Program{
		"pagerank": algo.NewPageRank(0.85),
		"sssp":     algo.NewSSSP(0),
		"lpa":      algo.NewLPA(),
		"sa":       algo.NewSA(16, 8, 60),
	}
}

func enginesFor(prog algo.Program) []Engine {
	if prog.Combiner() == nil {
		return []Engine{Push, Pull, BPull, Hybrid}
	}
	return Engines
}

func runOne(t *testing.T, g *graph.Graph, prog algo.Program, cfg Config, e Engine) *metrics.JobResult {
	t.Helper()
	res, err := Run(g, prog, cfg, e)
	if err != nil {
		t.Fatalf("%s/%s: %v", e, prog.Name(), err)
	}
	return res
}

func checkAgainstReference(t *testing.T, g *graph.Graph, prog algo.Program, cfg Config) {
	t.Helper()
	want := referenceRun(g, prog, cfg.withDefaults().MaxSteps)
	for _, e := range enginesFor(prog) {
		res := runOne(t, g, prog, cfg, e)
		if len(res.Values) != len(want) {
			t.Fatalf("%s: %d values, want %d", e, len(res.Values), len(want))
		}
		bad := 0
		for v := range want {
			if !almostEqual(res.Values[v], want[v]) {
				bad++
				if bad <= 3 {
					t.Errorf("%s/%s: vertex %d = %g, want %g", e, prog.Name(), v, res.Values[v], want[v])
				}
			}
		}
		if bad > 0 {
			t.Fatalf("%s/%s: %d/%d vertices differ from reference", e, prog.Name(), bad, len(want))
		}
	}
}

func TestEnginesMatchReferenceLimitedMemory(t *testing.T) {
	g := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 21)
	cfg := Config{Workers: 4, MsgBuf: 150, MaxSteps: 8, VertexCache: 100}
	for name, prog := range testPrograms(t) {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, g, prog, cfg) })
	}
}

func TestEnginesMatchReferenceSufficientMemory(t *testing.T) {
	g := graph.GenRMAT(500, 3000, 0.57, 0.19, 0.19, 22)
	cfg := Config{Workers: 3, InMemory: true, MaxSteps: 6}
	for name, prog := range testPrograms(t) {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, g, prog, cfg) })
	}
}

func TestSSSPOnChainConverges(t *testing.T) {
	// A chain forces many supersteps with one active vertex each: the long
	// convergent tail the paper highlights for Traversal algorithms.
	g := graph.GenChain(40, 0, 5)
	prog := algo.NewSSSP(0)
	want := referenceRun(g, prog, 60)
	for _, e := range []Engine{Push, BPull, Hybrid, Pull} {
		res := runOne(t, g, prog, Config{Workers: 3, MsgBuf: 10, MaxSteps: 60, VertexCache: 4}, e)
		for v := range want {
			if !almostEqual(res.Values[v], want[v]) {
				t.Fatalf("%s: vertex %d = %g, want %g", e, v, res.Values[v], want[v])
			}
		}
		// 40 vertices in a chain need ~41 supersteps.
		if res.Supersteps() < 40 {
			t.Fatalf("%s: converged after %d supersteps, expected ≥ 40", e, res.Supersteps())
		}
	}
}

func TestSufficientMemoryHasNoDiskIO(t *testing.T) {
	g := graph.GenUniform(300, 1800, 9)
	for _, e := range Engines {
		res := runOne(t, g, algo.NewPageRank(0.85),
			Config{Workers: 3, InMemory: true, MaxSteps: 4, VertexCache: 1000}, e)
		if res.IO.Total() != 0 {
			t.Fatalf("%s: sufficient-memory run did %d bytes of disk I/O (%s)",
				e, res.IO.Total(), res.IO.String())
		}
	}
}

// TestVerticesInMemoryIdentity pins Table 5's ext-edge scenario as a
// charge rule: holding the vertex store resident drops exactly the vertex
// terms (Vt, Vrr) from every superstep and the vertex-store init from
// loading, and changes no value.
func TestVerticesInMemoryIdentity(t *testing.T) {
	g := graph.GenRMAT(800, 6400, 0.57, 0.19, 0.19, 7)
	for _, e := range []Engine{Push, BPull, Hybrid} {
		t.Run(string(e), func(t *testing.T) {
			var runs [2]*metrics.JobResult
			for i, resident := range []bool{false, true} {
				runs[i] = runOne(t, g, algo.NewPageRank(0.85),
					Config{Workers: 3, MsgBuf: 200, MaxSteps: 5, VerticesInMemory: resident}, e)
				for _, st := range runs[i].Steps {
					if st.IO.Total() != st.Parts.Total() {
						t.Errorf("resident=%v, step %d: IO %d B, Parts %d B", resident, st.Step, st.IO.Total(), st.Parts.Total())
					}
				}
			}
			disk, mem := runs[0], runs[1]
			for v := range disk.Values {
				if disk.Values[v] != mem.Values[v] {
					t.Fatalf("vertex %d: %g on disk, %g resident", v, disk.Values[v], mem.Values[v])
				}
			}
			if len(disk.Steps) != len(mem.Steps) {
				t.Fatalf("%d supersteps on disk, %d resident", len(disk.Steps), len(mem.Steps))
			}
			for i, st := range mem.Steps {
				d := disk.Steps[i]
				if st.Parts.Vt != 0 || st.Parts.Vrr != 0 {
					t.Errorf("step %d: resident run charged Vt %d, Vrr %d", st.Step, st.Parts.Vt, st.Parts.Vrr)
				}
				if want := d.IO.Total() - d.Parts.Vt - d.Parts.Vrr; st.IO.Total() != want {
					t.Errorf("step %d: resident IO %d B, want disk %d − Vt %d − Vrr %d = %d",
						st.Step, st.IO.Total(), d.IO.Total(), d.Parts.Vt, d.Parts.Vrr, want)
				}
			}
			if drop, want := disk.LoadIO.Total()-mem.LoadIO.Total(), int64(g.NumVertices)*vertexfile.RecordSize; drop != want {
				t.Errorf("LoadIO fell by %d B, want |V| × RecordSize = %d", drop, want)
			}
			t.Logf("IO %d → %d B", disk.IO.Total(), mem.IO.Total())
		})
	}
}

func TestPushSpillsWhenBufferSmall(t *testing.T) {
	g := graph.GenUniform(400, 4000, 10)
	res := runOne(t, g, algo.NewPageRank(0.85), Config{Workers: 4, MsgBuf: 50, MaxSteps: 4}, Push)
	if res.IO.Bytes[diskio.RandWrite] == 0 {
		t.Fatal("push with a tiny buffer should spill messages (random writes)")
	}
	var spilled int64
	for _, s := range res.Steps {
		spilled += s.Spilled
	}
	if spilled == 0 {
		t.Fatal("no spilled messages recorded")
	}
}

func TestBPullAvoidsMessageIO(t *testing.T) {
	g := graph.GenUniform(400, 4000, 10)
	res := runOne(t, g, algo.NewPageRank(0.85), Config{Workers: 4, MsgBuf: 50, MaxSteps: 4}, BPull)
	for _, s := range res.Steps {
		if s.Parts.MdiskW != 0 || s.Parts.MdiskR != 0 {
			t.Fatalf("b-pull step %d touched message disk I/O: %+v", s.Step, s.Parts)
		}
	}
	if res.IO.Bytes[diskio.RandWrite] != 0 {
		t.Fatalf("b-pull should not random-write; did %d bytes", res.IO.Bytes[diskio.RandWrite])
	}
}

func TestBPullBeatsPushOnIOWhenBufferSmall(t *testing.T) {
	// Theorem 2's regime: B far below |E|/2 - f makes push's message I/O
	// dominate; b-pull's total I/O bytes must come out lower.
	g := graph.GenRMAT(1024, 16384, 0.57, 0.19, 0.19, 33)
	cfg := Config{Workers: 4, MsgBuf: 100, MaxSteps: 4}
	prog := algo.NewPageRank(0.85)
	push := runOne(t, g, prog, cfg, Push)
	bpull := runOne(t, g, prog, cfg, BPull)
	if bpull.IO.Total() >= push.IO.Total() {
		t.Fatalf("b-pull I/O %d should beat push I/O %d in the small-buffer regime",
			bpull.IO.Total(), push.IO.Total())
	}
}

func TestPushMReducesSpillVersusPush(t *testing.T) {
	g := graph.GenRMAT(1024, 16384, 0.6, 0.15, 0.15, 34)
	cfg := Config{Workers: 4, MsgBuf: 120, MaxSteps: 4}
	prog := algo.NewPageRank(0.85)
	push := runOne(t, g, prog, cfg, Push)
	pushm := runOne(t, g, prog, cfg, PushM)
	var sPush, sPushM int64
	for _, s := range push.Steps {
		sPush += s.Spilled
	}
	for _, s := range pushm.Steps {
		sPushM += s.Spilled
	}
	if sPushM >= sPush {
		t.Fatalf("pushM spilled %d messages, push %d; online computing should reduce spill",
			sPushM, sPush)
	}
}

func TestPullPaysRandomVertexReads(t *testing.T) {
	g := graph.GenUniform(600, 9000, 11)
	cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 3, VertexCache: 20}
	pull := runOne(t, g, algo.NewPageRank(0.85), cfg, Pull)
	bpull := runOne(t, g, algo.NewPageRank(0.85), cfg, BPull)
	if pull.IO.Bytes[diskio.RandRead] <= bpull.IO.Bytes[diskio.RandRead] {
		t.Fatalf("pull random reads %d should exceed b-pull's %d",
			pull.IO.Bytes[diskio.RandRead], bpull.IO.Bytes[diskio.RandRead])
	}
}

func TestBPullCombiningSavesNetworkBytes(t *testing.T) {
	g := graph.GenUniform(500, 7500, 12)
	prog := algo.NewPageRank(0.85)
	on := runOne(t, g, prog, Config{Workers: 4, MsgBuf: 200, MaxSteps: 3}, BPull)
	off := runOne(t, g, prog, Config{Workers: 4, MsgBuf: 200, MaxSteps: 3, DisableCombine: true}, BPull)
	if on.NetBytes >= off.NetBytes {
		t.Fatalf("combining on: %d net bytes, off: %d; combining should save",
			on.NetBytes, off.NetBytes)
	}
	if off.Steps[1].McoBytes == 0 {
		t.Fatal("concatenation alone should still save bytes (shared destination ids)")
	}
}

func TestPushMRequiresCombiner(t *testing.T) {
	g := graph.GenUniform(100, 500, 13)
	if _, err := Run(g, algo.NewLPA(), Config{Workers: 2, MaxSteps: 3}, PushM); err == nil {
		t.Fatal("pushM over LPA should be rejected (messages not commutative)")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	g := graph.GenUniform(100, 500, 13)
	if _, err := Run(g, algo.NewPageRank(0.85), Config{Workers: 2, MaxSteps: 3}, Engine("bogus")); err == nil {
		t.Fatal("an unknown engine should be rejected")
	}
}

func TestHybridSwitchesOnTraversal(t *testing.T) {
	// SSSP on a skewed graph with a modest buffer: hybrid should start in
	// b-pull (Theorem 2) and switch to push as the message volume decays.
	g := graph.GenRMAT(2048, 32768, 0.6, 0.15, 0.15, 35)
	res := runOne(t, g, algo.NewSSSP(0), Config{Workers: 4, MsgBuf: 400, MaxSteps: 40}, Hybrid)
	modes := map[string]int{}
	switches := 0
	for i, s := range res.Steps {
		modes[s.Mode]++
		if i > 0 && s.Mode != res.Steps[i-1].Mode {
			switches++
		}
	}
	if modes[string(BPull)] == 0 {
		t.Fatalf("hybrid never ran b-pull: %v", modes)
	}
	if switches == 0 {
		t.Logf("note: hybrid never switched on this workload (modes %v)", modes)
	}
	// Switches must be spaced by the Δt=2 interval.
	last := -10
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Mode != res.Steps[i-1].Mode {
			if res.Steps[i].Step-last < 2 {
				t.Fatalf("switches at steps %d and %d violate Δt=2", last, res.Steps[i].Step)
			}
			last = res.Steps[i].Step
		}
	}
}

func TestHybridInitialModeFollowsTheorem2(t *testing.T) {
	g := graph.GenUniform(800, 12000, 36)
	prog := algo.NewPageRank(0.85)
	// Small buffer with a coarse block layout keeps the fragment count f
	// below |E|/2, so B ≤ B⊥ and hybrid must start in b-pull. (Under the
	// automatic Eq.-5 layout our scaled graphs fragment heavily, making
	// B⊥ negative — Theorem 2 then correctly prefers push initially.)
	small := runOne(t, g, prog, Config{Workers: 4, MsgBuf: 10, MaxSteps: 3, BlocksPerWorker: 1}, Hybrid)
	if small.Steps[0].Mode != string(BPull) {
		t.Fatalf("small buffer should start in b-pull, got %s", small.Steps[0].Mode)
	}
	// Huge buffer: B above B⊥ ⇒ start in push.
	big := runOne(t, g, prog, Config{Workers: 4, MsgBuf: 50000, MaxSteps: 3}, Hybrid)
	if big.Steps[0].Mode != string(Push) {
		t.Fatalf("huge buffer should start in push, got %s", big.Steps[0].Mode)
	}
}

func TestHybridMatchesReferenceAcrossSwitches(t *testing.T) {
	g := graph.GenRMAT(1500, 24000, 0.6, 0.15, 0.15, 37)
	for name, prog := range testPrograms(t) {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: 4, MsgBuf: 300, MaxSteps: 12, VertexCache: 100}
			want := referenceRun(g, prog, cfg.withDefaults().MaxSteps)
			res := runOne(t, g, prog, cfg, Hybrid)
			for v := range want {
				if !almostEqual(res.Values[v], want[v]) {
					t.Fatalf("vertex %d = %g, want %g", v, res.Values[v], want[v])
				}
			}
		})
	}
}

func TestQtSignMatchesRegime(t *testing.T) {
	prog := algo.NewPageRank(0.85)
	g := graph.GenUniform(800, 12000, 38)
	// Message-heavy, tiny buffer: Qt ≥ 0 (b-pull wins).
	res := runOne(t, g, prog, Config{Workers: 4, MsgBuf: 10, MaxSteps: 4}, Hybrid)
	mid := res.Steps[2]
	if mid.Qt < 0 {
		t.Fatalf("Qt = %g at step 3 with a starved buffer; want ≥ 0", mid.Qt)
	}
}

func TestWorkDirRespectedAndCleaned(t *testing.T) {
	g := graph.GenUniform(100, 400, 40)
	dir := t.TempDir() + "/job"
	_, err := Run(g, algo.NewPageRank(0.85),
		Config{Workers: 2, MsgBuf: 50, MaxSteps: 2, WorkDir: dir}, Push)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.GenUniform(10, 30, 41)
	if _, err := Run(g, algo.NewPageRank(0.85), Config{Workers: 50}, Push); err == nil {
		t.Fatal("more workers than vertices should be rejected")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Run(empty, algo.NewPageRank(0.85), Config{}, Push); err == nil {
		t.Fatal("empty graph should be rejected")
	}
}

// TestPrefetchOnOffIdentity: pre-pulling the next Vblock changes when a
// block is fetched, not what is fetched. With and without it, b-pull and
// hybrid give bit-equal values, per-step I/O and wire bytes, and simulated
// time; only the receiving-buffer charge grows, because a pre-pull holds a
// second buffer while the current block updates.
func TestPrefetchOnOffIdentity(t *testing.T) {
	g := graph.GenRMAT(700, 7000, 0.57, 0.19, 0.19, 42)
	for _, e := range []Engine{BPull, Hybrid} {
		cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 20}
		on := runOne(t, g, algo.NewSSSP(0), cfg, e)
		cfg.DisablePrepull = true
		off := runOne(t, g, algo.NewSSSP(0), cfg, e)
		for v := range on.Values {
			if math.Float64bits(on.Values[v]) != math.Float64bits(off.Values[v]) {
				t.Fatalf("%s: vertex %d = %g with pre-pull, %g without", e, v, on.Values[v], off.Values[v])
			}
		}
		if len(on.Steps) != len(off.Steps) {
			t.Fatalf("%s: %d supersteps with pre-pull, %d without", e, len(on.Steps), len(off.Steps))
		}
		for i := range on.Steps {
			a, b := on.Steps[i], off.Steps[i]
			if a.IO != b.IO || a.NetBytes != b.NetBytes {
				t.Errorf("%s step %d: IO %+v net %d with pre-pull, IO %+v net %d without",
					e, a.Step, a.IO, a.NetBytes, b.IO, b.NetBytes)
			}
		}
		if math.Float64bits(on.SimSeconds) != math.Float64bits(off.SimSeconds) {
			t.Errorf("%s: SimSeconds %g with pre-pull, %g without", e, on.SimSeconds, off.SimSeconds)
		}
		if on.MaxMemBytes <= off.MaxMemBytes {
			t.Errorf("%s: MaxMemBytes %d with pre-pull, not above %d without", e, on.MaxMemBytes, off.MaxMemBytes)
		}
	}
}
