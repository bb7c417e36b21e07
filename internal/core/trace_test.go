package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// parsedTrace is one decoded journal, events bucketed by type.
type parsedTrace struct {
	jobStart, jobEnd []obs.JobEvent
	workerSteps      []obs.WorkerStepEvent
	steps            []obs.StepEvent
	switches         []obs.ModeSwitchEvent
	checkpoints      []obs.CheckpointEvent
	restores         []obs.CheckpointEvent
	faults           []obs.FaultEvent
	recoveries       []obs.RecoveryEvent
	restoreFailed    []obs.RestoreFailedEvent
	replaySteps      []obs.ReplayStepEvent
	replayServes     []obs.ReplayServeEvent
	pruneFailed      []obs.PruneFailedEvent
	catalogs         []obs.CatalogEvent
	scheduler        []obs.SchedulerEvent
	reassigns        []obs.ReassignEvent
	adoptBlocks      []obs.AdoptBlockEvent
	codecs           []obs.CodecEvent
}

func parseTrace(t *testing.T, data []byte) *parsedTrace {
	t.Helper()
	p := &parsedTrace{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch head.Type {
		case obs.EventJobStart, obs.EventJobEnd:
			var ev obs.JobEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if head.Type == obs.EventJobStart {
				p.jobStart = append(p.jobStart, ev)
			} else {
				p.jobEnd = append(p.jobEnd, ev)
			}
		case obs.EventWorkerStep:
			var ev obs.WorkerStepEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.workerSteps = append(p.workerSteps, ev)
		case obs.EventStep:
			var ev obs.StepEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.steps = append(p.steps, ev)
		case obs.EventModeSwitch:
			var ev obs.ModeSwitchEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.switches = append(p.switches, ev)
		case obs.EventCheckpoint, obs.EventRestore:
			var ev obs.CheckpointEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if head.Type == obs.EventCheckpoint {
				p.checkpoints = append(p.checkpoints, ev)
			} else {
				p.restores = append(p.restores, ev)
			}
		case obs.EventFault:
			var ev obs.FaultEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.faults = append(p.faults, ev)
		case obs.EventRecovery:
			var ev obs.RecoveryEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.recoveries = append(p.recoveries, ev)
		case obs.EventRestoreFailed:
			var ev obs.RestoreFailedEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.restoreFailed = append(p.restoreFailed, ev)
		case obs.EventReplayStep:
			var ev obs.ReplayStepEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.replaySteps = append(p.replaySteps, ev)
		case obs.EventReplayServe:
			var ev obs.ReplayServeEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.replayServes = append(p.replayServes, ev)
		case obs.EventPruneFailed:
			var ev obs.PruneFailedEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.pruneFailed = append(p.pruneFailed, ev)
		case obs.EventCatalog:
			var ev obs.CatalogEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.catalogs = append(p.catalogs, ev)
		case obs.EventReassign:
			var ev obs.ReassignEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.reassigns = append(p.reassigns, ev)
		case obs.EventAdoptBlock:
			var ev obs.AdoptBlockEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.adoptBlocks = append(p.adoptBlocks, ev)
		case obs.EventCompress, obs.EventDecompress:
			var ev obs.CodecEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.codecs = append(p.codecs, ev)
		case obs.EventJobQueued, obs.EventJobCancelled:
			var ev obs.SchedulerEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			p.scheduler = append(p.scheduler, ev)
		default:
			t.Fatalf("unknown event type %q", head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTraceMatchesStepStats is the accounting cross-check the observability
// layer is built around: summing a superstep's per-worker journal events
// must reproduce the aggregated StepStats exactly — same byte counters,
// same I/O breakdown, same network totals. Run under hybrid with a tight
// buffer so both push (spilling) and b-pull supersteps appear.
func TestTraceMatchesStepStats(t *testing.T) {
	g := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 21)
	progs := []algo.Program{algo.NewPageRank(0.85), algo.NewSSSP(0)}
	// Push guarantees spilling supersteps under the tight buffer; hybrid
	// exercises the mode schedule and switch events.
	for _, engine := range []Engine{Hybrid, Push} {
		for _, prog := range progs {
			engine, prog := engine, prog
			t.Run(prog.Name()+"/"+string(engine), func(t *testing.T) {
				checkTracedRun(t, g, prog, engine)
			})
		}
	}
}

func checkTracedRun(t *testing.T, g *graph.Graph, prog algo.Program, engine Engine) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	cfg := Config{Workers: 4, MsgBuf: 150, MaxSteps: 8,
		TraceWriter: &buf, Metrics: reg}
	res, err := Run(g, prog, cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	p := parseTrace(t, buf.Bytes())

	if len(p.jobStart) != 1 || len(p.jobEnd) != 1 {
		t.Fatalf("job_start=%d job_end=%d, want 1 each", len(p.jobStart), len(p.jobEnd))
	}
	start, end := p.jobStart[0], p.jobEnd[0]
	if start.Engine != string(engine) || start.Algorithm != prog.Name() ||
		start.Workers != 4 || start.Vertices != g.NumVertices {
		t.Fatalf("job_start = %+v", start)
	}
	if end.Steps != len(res.Steps) || end.NetBytes != res.NetBytes ||
		end.IOBytes != res.IO.Total() || end.Restarts != res.Restarts {
		t.Fatalf("job_end = %+v, result steps=%d net=%d io=%d",
			end, len(res.Steps), res.NetBytes, res.IO.Total())
	}

	if len(p.steps) != len(res.Steps) {
		t.Fatalf("%d step events for %d recorded supersteps", len(p.steps), len(res.Steps))
	}
	byStep := map[int][]obs.WorkerStepEvent{}
	for _, ev := range p.workerSteps {
		byStep[ev.Step] = append(byStep[ev.Step], ev)
	}
	spilledTotal := int64(0)
	for i, st := range res.Steps {
		evs := byStep[st.Step]
		if len(evs) != cfg.Workers {
			t.Fatalf("step %d: %d worker events, want %d", st.Step, len(evs), cfg.Workers)
		}
		var sum obs.WorkerStepEvent
		var memMax int64
		for _, ev := range evs {
			if ev.Mode != st.Mode {
				t.Fatalf("step %d: worker %d mode %q, step mode %q", st.Step, ev.Worker, ev.Mode, st.Mode)
			}
			sum.Updated += ev.Updated
			sum.Responding += ev.Responding
			sum.Produced += ev.Produced
			sum.Requests += ev.Requests
			sum.Spilled += ev.Spilled
			sum.NetIn += ev.NetIn
			sum.NetOut += ev.NetOut
			sum.IO = sum.IO.Add(ev.IO)
			sum.Parts.Add(ev.Parts)
			if ev.MemBytes > memMax {
				memMax = ev.MemBytes
			}
		}
		if sum.Updated != st.Updated || sum.Responding != st.Responding ||
			sum.Produced != st.Produced || sum.Requests != st.Requests ||
			sum.Spilled != st.Spilled {
			t.Fatalf("step %d: worker sums %+v != stats %+v", st.Step, sum, st)
		}
		if sum.NetOut != st.NetBytes {
			t.Fatalf("step %d: sum NetOut %d != StepStats.NetBytes %d", st.Step, sum.NetOut, st.NetBytes)
		}
		// Every sent byte is received by some worker (loopback traffic is
		// not accounted, so in == out cluster-wide).
		if sum.NetIn != sum.NetOut {
			t.Fatalf("step %d: NetIn sum %d != NetOut sum %d", st.Step, sum.NetIn, sum.NetOut)
		}
		if sum.IO != st.IO {
			t.Fatalf("step %d: IO sum %+v != stats %+v", st.Step, sum.IO, st.IO)
		}
		if sum.Parts != st.Parts {
			t.Fatalf("step %d: Parts sum %+v != stats %+v", st.Step, sum.Parts, st.Parts)
		}
		if memMax != st.MemBytes {
			t.Fatalf("step %d: MemBytes max %d != stats %d", st.Step, memMax, st.MemBytes)
		}
		spilledTotal += st.Spilled

		// The step summary event must carry the recorded stats verbatim
		// (ints are exact; Go's JSON float encoding round-trips).
		se := p.steps[i].Stats
		if se.Step != st.Step || se.Mode != st.Mode || se.Produced != st.Produced ||
			se.NetBytes != st.NetBytes || se.Spilled != st.Spilled ||
			se.IO != st.IO || se.Parts != st.Parts || se.MemBytes != st.MemBytes ||
			se.Qt != st.Qt || se.SwitchedFrom != st.SwitchedFrom {
			t.Fatalf("step %d: StepEvent stats %+v != recorded %+v", st.Step, se, st)
		}
	}
	if engine == Push && spilledTotal == 0 {
		t.Fatal("expected spills under MsgBuf=150; cross-check never exercised MdiskW")
	}
	// The codec events are emitted under the identity codec too, and there
	// they read physical == logical.
	if len(p.codecs) == 0 {
		t.Fatal("no compress/decompress events under codec none")
	}
	for _, ev := range p.codecs {
		if ev.Codec != "none" || ev.Physical != ev.Logical {
			t.Fatalf("codec event under none = %+v, want physical == logical", ev)
		}
	}

	// Mode switch events must match the SwitchedFrom markers.
	switched := 0
	for _, st := range res.Steps {
		if st.SwitchedFrom != "" {
			switched++
		}
	}
	if len(p.switches) != switched {
		t.Fatalf("%d mode_switch events, %d SwitchedFrom steps", len(p.switches), switched)
	}

	// Registry totals mirror the journal.
	snap := reg.Snapshot()
	if snap["core.supersteps"] != int64(len(res.Steps)) {
		t.Fatalf("core.supersteps = %d, want %d", snap["core.supersteps"], len(res.Steps))
	}
	if snap["core.net_bytes"] != res.NetBytes {
		t.Fatalf("core.net_bytes = %d, want %d", snap["core.net_bytes"], res.NetBytes)
	}
	if snap["core.io_bytes"] != res.IO.Total() {
		t.Fatalf("core.io_bytes = %d, want %d", snap["core.io_bytes"], res.IO.Total())
	}
	if snap["core.spilled_msgs"] != spilledTotal {
		t.Fatalf("core.spilled_msgs = %d, want %d", snap["core.spilled_msgs"], spilledTotal)
	}
	if snap["comm.net_bytes"] != res.NetBytes {
		t.Fatalf("comm.net_bytes = %d, want %d", snap["comm.net_bytes"], res.NetBytes)
	}
}

// TestTraceFaultEvents runs a checkpointed job with an injected crash and
// checks the journal records the whole fault story: checkpoint commits
// matching JobResult.Checkpoints, the fault at the scheduled superstep,
// the recovery, and the restore from the last committed checkpoint.
func TestTraceFaultEvents(t *testing.T) {
	g := graph.GenRMAT(400, 2800, 0.57, 0.19, 0.19, 11)
	var buf bytes.Buffer
	cfg := Config{Workers: 3, MsgBuf: 120, MaxSteps: 6,
		Recovery: "checkpoint", CheckpointEvery: 2,
		FaultPlan:   faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1}),
		TraceWriter: &buf}
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	p := parseTrace(t, buf.Bytes())

	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}
	if len(p.faults) != 1 || p.faults[0].Step != 5 || p.faults[0].Worker != 1 {
		t.Fatalf("fault events = %+v, want one at step 5 worker 1", p.faults)
	}
	if len(p.recoveries) != 1 {
		t.Fatalf("recovery events = %+v, want 1", p.recoveries)
	}
	rec := p.recoveries[0]
	if rec.Policy != "checkpoint" || !rec.Restored {
		t.Fatalf("recovery = %+v, want restored checkpoint recovery", rec)
	}
	if len(p.checkpoints) != res.Checkpoints {
		t.Fatalf("%d checkpoint events, JobResult.Checkpoints = %d", len(p.checkpoints), res.Checkpoints)
	}
	if len(p.restores) != res.Restores {
		t.Fatalf("%d restore events, JobResult.Restores = %d", len(p.restores), res.Restores)
	}
	if res.Restores < 1 {
		t.Fatalf("Restores = %d, want >= 1", res.Restores)
	}
	for _, ce := range p.checkpoints {
		if ce.Workers != cfg.Workers || ce.Bytes <= 0 {
			t.Fatalf("checkpoint event = %+v", ce)
		}
	}
	if end := p.jobEnd[0]; end.Restarts != 1 {
		t.Fatalf("job_end restarts = %d, want 1", end.Restarts)
	}
}

// TestTraceDirAutoNames checks the harness-facing export path: TraceDir
// yields one journal per job, named after the algorithm and engine.
func TestTraceDirAutoNames(t *testing.T) {
	g := graph.GenRMAT(300, 2000, 0.57, 0.19, 0.19, 7)
	dir := t.TempDir()
	cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 4, TraceDir: dir}
	if _, err := Run(g, algo.NewPageRank(0.85), cfg, Push); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "pagerank_push_*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("journals in %s = %v, want one pagerank_push_*.jsonl", dir, matches)
	}
}

// TestStalledStepJournalMatchesResult pins the journal of a stalled
// superstep under the two policies that complete it with a rejoin: every
// superstep has exactly one step event, equal to the StepStats the result
// holds, and its superstep rows — the survivors' plus the rejoin's — sum to
// those stats on every summed field, max to them on the maxed ones and
// reduce to the same aggregate.
func TestStalledStepJournalMatchesResult(t *testing.T) {
	g := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 21)
	prog := algo.NewConvergingPageRank(0.85, 1e-12)
	for _, policy := range []string{"confined", "reassign"} {
		t.Run(policy, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Workers: 3, MsgBuf: 150, MaxSteps: 8, Recovery: policy,
				FaultPlan:   faultplan.NewPlan().WithStalls(faultplan.Stall{Step: 5, Worker: 2}),
				TraceWriter: &buf}
			res, err := Run(g, prog, cfg, Hybrid)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stalls != 1 {
				t.Fatalf("Stalls = %d, want 1", res.Stalls)
			}
			p := parseTrace(t, buf.Bytes())
			if len(p.steps) != len(res.Steps) {
				t.Fatalf("%d step events for %d supersteps", len(p.steps), len(res.Steps))
			}
			rows := map[int][]obs.WorkerStepEvent{}
			for _, ev := range p.workerSteps {
				rows[ev.Step] = append(rows[ev.Step], ev)
			}
			for i, st := range res.Steps {
				if se := p.steps[i].Stats; se != st {
					t.Fatalf("step %d: step event %+v, result %+v", st.Step, se, st)
				}
				want := cfg.Workers
				if st.Step == 5 {
					want++ // the stalled worker's rejoin
				}
				if len(rows[st.Step]) != want {
					t.Fatalf("step %d: %d superstep rows, want %d", st.Step, len(rows[st.Step]), want)
				}
				if rej := rows[st.Step][want-1]; st.Step == 5 && (rej.Worker != 2 || !rej.AggSet) {
					t.Fatalf("step 5: last row %+v, want worker 2's rejoin with an aggregate", rej)
				}
				var sum metrics.StepStats
				sum.Step, sum.Mode, sum.WallSeconds, sum.Qt, sum.SwitchedFrom =
					st.Step, st.Mode, st.WallSeconds, st.Qt, st.SwitchedFrom
				hostSecs := map[int]float64{}
				aggSet := false
				for _, r := range rows[st.Step] {
					sum.Produced += r.Produced
					sum.NetBytes += r.NetOut
					sum.Requests += r.Requests
					sum.Responding += r.Responding
					sum.Updated += r.Updated
					sum.Spilled += r.Spilled
					sum.IO = sum.IO.Add(r.IO)
					sum.LogIO = sum.LogIO.Add(r.LogIO)
					sum.PhysIO = sum.PhysIO.Add(r.PhysIO)
					sum.Parts.Add(r.Parts)
					sum.MemBytes = max(sum.MemBytes, r.MemBytes)
					sum.MigrationIO = sum.MigrationIO.Add(r.MigrationIO)
					sum.MigrationNetBytes += r.MigrationNetBytes
					sum.McoBytes += r.McoBytes
					sum.EstEt += r.EstEt
					sum.EstEbar += r.EstEbar
					sum.EstFt += r.EstFt
					sum.EstVrr += r.EstVrr
					sum.CPUSeconds += r.CPUSeconds
					sum.DiskSeconds += r.DiskSeconds
					sum.NetSeconds = max(sum.NetSeconds, r.NetSeconds)
					hostSecs[r.Host] += r.CPUSeconds + r.DiskSeconds + r.NetSeconds
					switch {
					case r.AggSet && aggSet:
						sum.Aggregate = prog.Reduce(sum.Aggregate, r.Aggregate)
					case r.AggSet:
						sum.Aggregate, aggSet = r.Aggregate, true
					}
				}
				for _, s := range hostSecs {
					sum.SimSeconds = max(sum.SimSeconds, s)
				}
				if sum != st {
					t.Fatalf("step %d: rows sum to %+v, result %+v", st.Step, sum, st)
				}
			}
		})
	}
}
