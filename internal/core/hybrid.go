package core

import (
	"hybridgraph/internal/comm"
	"hybridgraph/internal/metrics"
)

// Mode schedules and hybrid's scheduler (Section 5.3-5.4, Algorithm 3).
//
// Every engine runs a schedule, j.modes: superstep t consumes messages per
// modes[t] and produces per modes[t+1]. Push, pushM, pull and b-pull keep
// one mode throughout. Hybrid decides its modes two supersteps ahead: the
// statistics of superstep t predict Q^{t+2} (Shang-Yu persistence
// forecasting with Δt = 2), so while superstep t runs, modes[t] and
// modes[t+1] are already fixed. That is what makes Fig. 6's switch
// supersteps well-defined: when the two differ the superstep executes the
// switch (pullRes+update+pushRes, or load+update alone).

// initModes fills the schedule before any superstep has run: the engine's
// own mode, or for hybrid the starting mode of Algorithm 3, line 2, with
// the switcher's priors.
func (j *job) initModes() {
	first := j.engine
	if j.engine == Hybrid {
		first = j.hybridStart()
		j.rco = 0.4 // prior for the combining ratio before b-pull has run
		j.lastSwitch = -10
	}
	j.modes = make([]Engine, j.cfg.MaxSteps+3)
	for i := range j.modes {
		j.modes[i] = first
	}
}

// hybridStart picks hybrid's starting mode. Theorem 2's rule — b-pull when
// B ≤ B⊥ = |E|/2−f — decides the clear cases. When B > B⊥ we additionally
// evaluate Eq. (11) directly under the theorem's own broadcast assumption
// (every vertex sends on every out-edge, M = |E|): the theorem drops
// constant factors that matter when fragments are small relative to
// messages, and the direct Qt estimate is strictly sharper. With unlimited
// buffers (sufficient memory) communication dominates and b-pull's
// concatenation and combining always win, so b-pull starts.
func (j *job) hybridStart() Engine {
	if j.bTotal > 0 {
		bLower := int64(j.g.NumEdges())/2 - j.totalFrags
		if j.bTotal > bLower {
			m := int64(j.g.NumEdges())
			var mdisk int64
			if over := m - j.bTotal; over > 0 {
				mdisk = over * comm.MsgWireSize
			}
			ft := j.totalFrags * 8
			vrr := j.totalFrags * 8
			et := m * 8
			ebar := m * 8
			// Mco conservatively 0: the decision rests on I/O alone,
			// exactly as Theorem 2's derivation does.
			if metrics.Qt(j.cfg.Profile, 0, mdisk, vrr, et, ebar, ft) < 0 {
				return Push
			}
		}
	}
	return BPull
}

// produceMode reports how superstep t's messages leave the node: pushed
// now (modes[t+1] == Push) or pulled at t+1.
func (j *job) produceMode(t int) Engine {
	if t+1 < len(j.modes) {
		return j.modes[t+1]
	}
	return j.modes[len(j.modes)-1]
}

// scheduleMode runs Algorithm 3's evaluate() after superstep t: the
// predicted Q^{t+2} picks modes[t+2], with switches spaced at least the
// switching interval Δt = 2 apart (frequent switching is not cost
// effective, Section 5.3).
func (j *job) scheduleMode(t int, st metrics.StepStats) {
	if t+2 >= len(j.modes) {
		return
	}
	want := Push
	if st.Qt >= 0 {
		want = BPull
	}
	cur := j.modes[t+1]
	if want != cur && (t+2)-j.lastSwitch < j.cfg.SwitchInterval {
		want = cur
	}
	if want != cur {
		j.lastSwitch = t + 2
	}
	for i := t + 2; i < len(j.modes); i++ {
		j.modes[i] = want
	}
}

// finishQt evaluates Eq. (11) for the superstep from what the mode of the
// moment measured plus the estimates of the other mode's costs (Section
// 5.3), and refreshes the concatenation ratio push supersteps estimate Mco
// with. Figs. 11-13 score the prediction by comparing the measured
// quantities at t and t+2, so nothing here stores a forecast.
func (j *job) finishQt(mode Engine, st *metrics.StepStats) {
	p := j.cfg.Profile
	switch mode {
	case BPull:
		// Measured b-pull side; push side estimated.
		estEt := st.EstEt
		if st.Parts.Et > 0 { // a switch superstep measured real push edges
			estEt += st.Parts.Et
		}
		var mdisk int64
		if j.bTotal > 0 {
			if over := st.Produced - j.bTotal; over > 0 {
				mdisk = over * comm.MsgWireSize
			}
		}
		st.Qt = metrics.Qt(p, st.McoBytes, mdisk, st.Parts.Vrr, estEt, st.Parts.Ebar, st.Parts.Ft)
		if st.Produced > 0 {
			j.rco = float64(st.McoBytes) / float64(st.Produced*comm.MsgWireSize)
		}
	case Push, PushM:
		// Measured push side; b-pull side estimated from metadata.
		mcoBytes := int64(float64(st.Produced*comm.MsgWireSize) * j.rco)
		st.Qt = metrics.Qt(p, mcoBytes, st.Parts.MdiskW, st.EstVrr, st.Parts.Et, st.EstEbar, st.EstFt)
	default:
		st.Qt = 0
	}
}
