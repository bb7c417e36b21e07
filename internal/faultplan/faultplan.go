// Package faultplan describes deterministic fault schedules for one job:
// worker crashes pinned to (superstep, worker) points plus seeded transport
// faults (dropped, delayed and duplicated RPCs). A Plan is pure data — it
// carries no firing state — so the same Plan value can parameterise many
// runs and always injects the same faults; the consumer (core's master for
// crashes, the TCP fabric for transport faults) tracks what has fired.
// Deterministic injection is what makes recovery testable: a recovered run
// can be compared bit-for-bit against a clean run of the same plan.
package faultplan

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hybridgraph/internal/diskio"
)

// Crash schedules one worker failure, detected by the master's fault
// detector at the start of superstep Step (1-based). Each crash fires at
// most once per job: a superstep re-executed during recovery does not
// re-fire a crash that already happened.
type Crash struct {
	Step   int
	Worker int
	// Permanent marks the worker as gone for good: under the reassign
	// recovery policy the master does not restore it but migrates its
	// partition to a survivor. Other policies treat a permanent crash
	// like an ordinary one.
	Permanent bool
}

// String implements fmt.Stringer.
func (c Crash) String() string {
	if c.Permanent {
		return fmt.Sprintf("crash(step=%d, worker=%d, permanent)", c.Step, c.Worker)
	}
	return fmt.Sprintf("crash(step=%d, worker=%d)", c.Step, c.Worker)
}

// PermanentCrash schedules a worker failure the master must treat as
// unrecoverable in place: the machine is gone, not restarting.
func PermanentCrash(step, worker int) Crash {
	return Crash{Step: step, Worker: worker, Permanent: true}
}

// Stall schedules one worker hang: at superstep Step the worker stops
// making progress without crashing, and the master, which knows the
// schedule, declares it failed when the survivors reach the barrier.
// Unlike a crash — which fires at the start of the superstep, before any
// worker runs — a stall lets the survivors complete superstep Step,
// which is exactly the asymmetry confined recovery must handle (the
// stalled worker rejoins a superstep the rest of the cluster already
// finished).
// Each stall fires at most once per job, like crashes.
type Stall struct {
	Step   int
	Worker int
}

// String implements fmt.Stringer.
func (s Stall) String() string {
	return fmt.Sprintf("stall(step=%d, worker=%d)", s.Step, s.Worker)
}

// TransportFaults describes seeded network-level faults the TCP fabric
// injects on the serving side of each RPC. Rates are probabilities in
// [0, 1] evaluated independently per request from a deterministic stream
// seeded by Seed. The description is immutable; call NewRoller for a
// fresh decision stream.
type TransportFaults struct {
	// Seed fixes the pseudo-random decision stream.
	Seed int64
	// DropRequest is the probability a request is lost before the server
	// processes it. On a TCP stream a loss is a broken connection: the
	// server closes it, and the client redials and retries at once.
	DropRequest float64
	// DropResponse is the probability the server processes a request but
	// its response is lost to a broken connection: the client retries at
	// once, and the server-side dedup must suppress the re-application
	// (exactly-once).
	DropResponse float64
	// Duplicate is the probability the network delivers a request twice:
	// the second delivery must be absorbed by the dedup layer.
	Duplicate float64
	// Delay is the probability a response is delayed by up to MaxDelay.
	Delay float64
	// MaxDelay bounds injected delays (default 2ms when Delay > 0).
	MaxDelay time.Duration
}

// Plan is a deterministic fault schedule for one job.
type Plan struct {
	// Crashes lists the scheduled worker failures.
	Crashes []Crash
	// Stalls lists the scheduled worker hangs, detected by the master at
	// the superstep's barrier rather than at superstep start.
	Stalls []Stall
	// Net holds transport faults applied when the job runs over TCP;
	// nil injects none.
	Net *TransportFaults
	// Disk holds seeded storage faults (ENOSPC, torn writes, failed
	// fsync, bit-flip reads, simulated power cuts) injected by a
	// diskio.FaultFS installed over the job's working directory; nil
	// injects none. Like Net, the description is pure data: each run
	// builds a fresh injector from it.
	Disk *diskio.FaultConfig
}

// WithDisk returns the plan with the storage-fault description attached.
// The receiver is returned for chaining.
func (p *Plan) WithDisk(cfg diskio.FaultConfig) *Plan {
	p.Disk = &cfg
	return p
}

// NewPlan returns a plan with the given crashes, sorted by step (ties by
// worker) so injection order is independent of construction order.
func NewPlan(crashes ...Crash) *Plan {
	p := &Plan{Crashes: append([]Crash(nil), crashes...)}
	sort.Slice(p.Crashes, func(i, j int) bool {
		if p.Crashes[i].Step != p.Crashes[j].Step {
			return p.Crashes[i].Step < p.Crashes[j].Step
		}
		return p.Crashes[i].Worker < p.Crashes[j].Worker
	})
	return p
}

// WithStalls returns the plan with the given stalls added, sorted by step
// (ties by worker). The receiver is returned for chaining.
func (p *Plan) WithStalls(stalls ...Stall) *Plan {
	p.Stalls = append(p.Stalls, stalls...)
	sort.Slice(p.Stalls, func(i, j int) bool {
		if p.Stalls[i].Step != p.Stalls[j].Step {
			return p.Stalls[i].Step < p.Stalls[j].Step
		}
		return p.Stalls[i].Worker < p.Stalls[j].Worker
	})
	return p
}

// RandomCrashes deterministically draws n crashes at distinct supersteps in
// [2, maxStep] across workers in [0, workers), sorted by step. The same
// arguments always yield the same schedule.
func RandomCrashes(seed int64, n, maxStep, workers int) []Crash {
	if maxStep < 2 || n <= 0 || workers <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	steps := rng.Perm(maxStep - 1) // values 0..maxStep-2 → steps 2..maxStep
	if n > len(steps) {
		n = len(steps)
	}
	out := make([]Crash, 0, n)
	for _, s := range steps[:n] {
		out = append(out, Crash{Step: s + 2, Worker: rng.Intn(workers)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// RandomPermanentCrashes deterministically draws n permanent crashes at
// distinct supersteps in [2, maxStep] across workers in [0, workers),
// sorted by step. Distinct workers are preferred so a chaos campaign does
// not waste draws re-killing an already-dead worker.
func RandomPermanentCrashes(seed int64, n, maxStep, workers int) []Crash {
	crashes := RandomCrashes(seed, n, maxStep, workers)
	used := make(map[int]bool, len(crashes))
	for i := range crashes {
		crashes[i].Permanent = true
		if used[crashes[i].Worker] {
			for w := 0; w < workers; w++ {
				if !used[w] {
					crashes[i].Worker = w
					break
				}
			}
		}
		used[crashes[i].Worker] = true
	}
	return crashes
}

// RandomStalls deterministically draws n stalls at distinct supersteps in
// [2, maxStep] across workers in [0, workers), sorted by step. The same
// arguments always yield the same schedule, and a seed distinct from the
// one used for RandomCrashes yields an independent schedule.
func RandomStalls(seed int64, n, maxStep, workers int) []Stall {
	crashes := RandomCrashes(seed, n, maxStep, workers)
	out := make([]Stall, len(crashes))
	for i, c := range crashes {
		out[i] = Stall{Step: c.Step, Worker: c.Worker}
	}
	return out
}

// Decision is one request's injected faults.
type Decision struct {
	DropRequest  bool
	DropResponse bool
	Duplicate    bool
	Delay        time.Duration
}

// Roller produces the deterministic per-request fault decision stream for
// one TransportFaults description. Safe for concurrent use; under
// concurrency the assignment of decisions to requests follows arrival
// order, but each decision is still drawn from the seeded stream, so
// aggregate fault rates are reproducible.
type Roller struct {
	mu  sync.Mutex
	rng *rand.Rand
	t   TransportFaults
}

// NewRoller returns a fresh decision stream for the description.
func (t *TransportFaults) NewRoller() *Roller {
	tt := *t
	if tt.MaxDelay <= 0 {
		tt.MaxDelay = 2 * time.Millisecond
	}
	return &Roller{rng: rand.New(rand.NewSource(tt.Seed)), t: tt}
}

// Roll draws the fault decision for the next request.
func (r *Roller) Roll() Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d Decision
	d.DropRequest = r.rng.Float64() < r.t.DropRequest
	d.DropResponse = r.rng.Float64() < r.t.DropResponse
	d.Duplicate = r.rng.Float64() < r.t.Duplicate
	if r.rng.Float64() < r.t.Delay {
		d.Delay = time.Duration(r.rng.Int63n(int64(r.t.MaxDelay) + 1))
	}
	return d
}
