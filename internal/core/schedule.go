package core

import (
	"fmt"
	"slices"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/metrics"
)

// A scheduler decides every engine's mode schedule (Section 5.3-5.4):
// superstep t consumes messages per modes[t] and produces per modes[t+1].
// It fills the schedule before superstep 1 (start: after setup, whose
// fragment count Theorem 2 reads, and on a restart from scratch), returns
// the mode it chose for t+2 once superstep t's Q^t is known (after; "" when
// it chose none), carries its state in a checkpoint's master record, and
// lists the modes it can emit, from which setup picks the stores. Push,
// pushM, pull and b-pull run a fixed schedule. Hybrid's Algorithm 3
// decides two supersteps ahead (Shang-Yu persistence forecasting with
// Δt = 2), so while superstep t runs modes[t] and modes[t+1] are fixed;
// when they differ the superstep executes Fig. 6's switch.
type scheduler interface {
	plan() *schedule
	emits() []Engine
	start(j *job)
	after(t int, st metrics.StepStats) Engine
	record(m *checkpoint.Master)
	restore(m *checkpoint.Master)
}

// testScheduler, when a test sets it, replaces every job's scheduler.
var testScheduler func() scheduler

// schedule is the state every scheduler keeps: one mode per superstep,
// index t (1-based), and the concatenation ratio push supersteps estimate
// Mco with, which starts at the scheduler's prior.
type schedule struct {
	modes      []Engine
	rco, prior float64
}

func (s *schedule) plan() *schedule { return s }

// fill starts the schedule over in mode m, with rco at its prior.
func (s *schedule) fill(j *job, m Engine) {
	s.modes = make([]Engine, j.cfg.MaxSteps+3)
	for i := range s.modes {
		s.modes[i] = m
	}
	s.rco = s.prior
}

// produce reports how superstep t's messages leave the node: pushed now
// (modes[t+1] is a push mode) or pulled at t+1.
func (s *schedule) produce(t int) Engine {
	return s.modes[min(t+1, len(s.modes)-1)]
}

func (s *schedule) record(m *checkpoint.Master)  { m.Rco = s.rco }
func (s *schedule) restore(m *checkpoint.Master) { s.rco = m.Rco }

// newScheduler returns the scheduler that runs engine, or the reason the
// engine cannot run prog under the recovery policy.
func newScheduler(cfg Config, engine Engine, prog algo.Program, pol recoveryPolicy) (scheduler, error) {
	var s scheduler
	switch engine {
	case Push, PushM, Pull, BPull:
		s = &fixed{mode: engine}
	case Hybrid:
		s = &algorithm3{schedule: schedule{prior: 0.4}, interval: cfg.SwitchInterval}
	default:
		return nil, fmt.Errorf("core: unknown engine %q", engine)
	}
	if testScheduler != nil {
		s = testScheduler()
	}
	if slices.Contains(s.emits(), PushM) && prog.Combiner() == nil {
		// MOCgraph's online computing needs commutative messages, which is
		// why the paper's LPA and SA plots have no pushM bars.
		return nil, fmt.Errorf("core: pushM requires a combinable algorithm, %s is not", prog.Name())
	}
	if slices.Contains(s.emits(), Pull) && pol.failedOnly {
		// The pull baseline's gather/scatter exchanges carry whole vertex
		// states on demand, not superstep-framed messages; there is nothing
		// a sender-side log could replay.
		return nil, fmt.Errorf("core: %s recovery does not support the pull baseline", pol.name)
	}
	return s, nil
}

// fixed runs one mode every superstep.
type fixed struct {
	schedule
	mode Engine
}

func (f *fixed) emits() []Engine                     { return []Engine{f.mode} }
func (f *fixed) start(j *job)                        { f.fill(j, f.mode) }
func (f *fixed) after(int, metrics.StepStats) Engine { return "" }

// algorithm3 is hybrid's scheduler: Theorem 2 picks the starting mode, and
// after each superstep the sign of Q^t picks the mode two supersteps on,
// with switches spaced at least Δt apart. Its prior for the combining
// ratio, before b-pull has run, is 0.4.
type algorithm3 struct {
	schedule
	interval   int // Δt: frequent switching is not cost effective (Section 5.3)
	lastSwitch int // superstep the last switch took effect
}

func (a *algorithm3) emits() []Engine { return []Engine{BPull, Push} }

func (a *algorithm3) start(j *job) {
	a.fill(j, theorem2Start(j))
	a.lastSwitch = -10
}

// after runs Algorithm 3's evaluate(): the predicted Q^{t+2} picks
// modes[t+2].
func (a *algorithm3) after(t int, st metrics.StepStats) Engine {
	if t+2 >= len(a.modes) {
		return ""
	}
	want := Push
	if st.Qt >= 0 {
		want = BPull
	}
	cur := a.modes[t+1]
	if want != cur && (t+2)-a.lastSwitch < a.interval {
		want = cur
	}
	if want != cur {
		a.lastSwitch = t + 2
	}
	for i := t + 2; i < len(a.modes); i++ {
		a.modes[i] = want
	}
	return want
}

// record writes the whole schedule and the switching history, so a
// restored switcher does not re-learn from nothing; the fixed schedules
// need neither, because start rebuilds them.
func (a *algorithm3) record(m *checkpoint.Master) {
	a.schedule.record(m)
	m.LastSwitch = a.lastSwitch
	for _, mode := range a.modes {
		m.Modes = append(m.Modes, string(mode))
	}
}

func (a *algorithm3) restore(m *checkpoint.Master) {
	a.schedule.restore(m)
	a.lastSwitch = m.LastSwitch
	a.modes = a.modes[:0]
	for _, mode := range m.Modes {
		a.modes = append(a.modes, Engine(mode))
	}
}

// theorem2Start picks hybrid's starting mode (Algorithm 3, line 2).
// Theorem 2's rule — b-pull when B ≤ B⊥ = |E|/2−f — decides the clear
// cases. When B > B⊥ we additionally evaluate Eq. (11) directly under the
// theorem's own broadcast assumption (every vertex sends on every out-edge,
// M = |E|): the theorem drops constant factors that matter when fragments
// are small relative to messages, and the direct Qt estimate is strictly
// sharper. With unlimited buffers (sufficient memory) communication
// dominates and b-pull's concatenation and combining always win, so b-pull
// starts.
func theorem2Start(j *job) Engine {
	if j.bTotal > 0 {
		bLower := int64(j.g.NumEdges())/2 - j.totalFrags
		if j.bTotal > bLower {
			m := int64(j.g.NumEdges())
			mdisk := max(m-j.bTotal, 0) * comm.MsgWireSize
			// Mco conservatively 0: the decision rests on I/O alone,
			// exactly as Theorem 2's derivation does.
			f := j.totalFrags * 8
			if metrics.Qt(j.cfg.Profile, 0, mdisk, f, m*8, m*8, f) < 0 {
				return Push
			}
		}
	}
	return BPull
}

// finishQt evaluates Eq. (11) for the superstep from what the mode of the
// moment measured plus the estimates of the other mode's costs (Section
// 5.3), and refreshes the concatenation ratio push supersteps estimate Mco
// with. Figs. 11-13 score the prediction by comparing the measured
// quantities at t and t+2, so nothing here stores a forecast.
func (j *job) finishQt(mode Engine, st *metrics.StepStats) {
	p := j.cfg.Profile
	s := j.sched.plan()
	switch mode {
	case BPull:
		// Measured b-pull side; push side estimated.
		estEt := st.EstEt
		if st.Parts.Et > 0 { // a switch superstep measured real push edges
			estEt += st.Parts.Et
		}
		var mdisk int64
		if j.bTotal > 0 {
			mdisk = max(st.Produced-j.bTotal, 0) * comm.MsgWireSize
		}
		st.Qt = metrics.Qt(p, st.McoBytes, mdisk, st.Parts.Vrr, estEt, st.Parts.Ebar, st.Parts.Ft)
		if st.Produced > 0 {
			s.rco = float64(st.McoBytes) / float64(st.Produced*comm.MsgWireSize)
		}
	case Push, PushM:
		// Measured push side; b-pull side estimated from metadata.
		mcoBytes := int64(float64(st.Produced*comm.MsgWireSize) * s.rco)
		st.Qt = metrics.Qt(p, mcoBytes, st.Parts.MdiskW, st.EstVrr, st.Parts.Et, st.EstEbar, st.EstFt)
	default:
		st.Qt = 0
	}
}
