package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"hybridgraph/internal/diskio"
)

func TestQtMatchesEq11ByHand(t *testing.T) {
	p := diskio.Profile{SRR: 1, SRW: 2, SSR: 4, SSW: 4, SNet: 8, CPUFactor: 1}
	const mb = 1 << 20
	// Qt = mco/snet + mdisk/srw - vrr/srr + (et + mdisk - ebar - ft)/ssr
	got := Qt(p, 8*mb, 4*mb, 2*mb, 16*mb, 6*mb, 2*mb)
	want := 8.0/8 + 4.0/2 - 2.0/1 + (16.0+4-6-2)/4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Qt = %g, want %g", got, want)
	}
}

func TestQtSignFavoursBpullUnderMessagePressure(t *testing.T) {
	p := diskio.HDDLocal
	// Huge spilled-message volume, modest svertex reads: b-pull wins.
	if q := Qt(p, 1<<20, 100<<20, 1<<20, 50<<20, 40<<20, 1<<20); q <= 0 {
		t.Fatalf("Qt = %g, want > 0 under message pressure", q)
	}
	// No spills, heavy random svertex reads: push wins.
	if q := Qt(p, 0, 0, 50<<20, 1<<20, 1<<20, 1<<20); q >= 0 {
		t.Fatalf("Qt = %g, want < 0 with expensive svertex access", q)
	}
}

func TestQtSSDNarrowsGap(t *testing.T) {
	// Same byte profile scores a smaller |Qt| on SSDs: the paper's
	// "b-pull to push can achieve more gains on HDDs" (Fig. 14a).
	mco, mdisk, vrr, et, ebar, ft := int64(0), int64(0), int64(50<<20), int64(1<<20), int64(1<<20), int64(1<<20)
	hdd := Qt(diskio.HDDLocal, mco, mdisk, vrr, et, ebar, ft)
	ssd := Qt(diskio.SSDAmazon, mco, mdisk, vrr, et, ebar, ft)
	if !(hdd < 0 && ssd < 0) {
		t.Fatalf("both negative expected: hdd %g ssd %g", hdd, ssd)
	}
	if math.Abs(hdd) <= math.Abs(ssd) {
		t.Fatalf("|Qt(HDD)| = %g should exceed |Qt(SSD)| = %g", math.Abs(hdd), math.Abs(ssd))
	}
}

func TestIOBreakdownEquations(t *testing.T) {
	b := IOBreakdown{Vt: 10, Et: 20, Ebar: 15, Ft: 3, Vrr: 7, MdiskW: 30, MdiskR: 30}
	if got := b.CioPush(); got != 10+20+30+30 {
		t.Fatalf("CioPush = %d", got)
	}
	if got := b.CioBpull(); got != 10+15+3+7 {
		t.Fatalf("CioBpull = %d", got)
	}
	if b.Total() != 115 {
		t.Fatalf("Total = %d", b.Total())
	}
}

func TestCPUWorkSeconds(t *testing.T) {
	w := CPUWork{Messages: 1000, Edges: 2000, Updates: 100, Spilled: 50}
	p := diskio.Profile{CPUFactor: 2}
	want := 2 * (1000*CostPerMessage + 2000*CostPerEdge + 100*CostPerUpdate + 50*CostPerSpilledMsg)
	if got := w.Seconds(p); math.Abs(got-want) > 1e-18 {
		t.Fatalf("Seconds = %g, want %g", got, want)
	}
	var acc CPUWork
	acc.Add(w)
	acc.Add(w)
	if acc.Messages != 2000 || acc.Spilled != 100 {
		t.Fatalf("Add = %+v", acc)
	}
}

func TestJobResultFinish(t *testing.T) {
	r := &JobResult{Engine: "push", Algorithm: "pagerank", Dataset: "livej"}
	var io1, io2 diskio.Snapshot
	io1.Bytes[diskio.SeqRead] = 100
	io2.Bytes[diskio.RandWrite] = 50
	r.Steps = []StepStats{
		{Step: 1, SimSeconds: 1.5, NetBytes: 10, IO: io1, MemBytes: 7},
		{Step: 2, SimSeconds: 2.5, NetBytes: 20, IO: io2, MemBytes: 3},
	}
	r.Finish()
	if r.SimSeconds != 4 || r.NetBytes != 30 || r.MaxMemBytes != 7 {
		t.Fatalf("Finish: %+v", r)
	}
	if r.IO.Bytes[diskio.SeqRead] != 100 || r.IO.Bytes[diskio.RandWrite] != 50 {
		t.Fatalf("IO = %v", r.IO)
	}
	if r.Supersteps() != 2 {
		t.Fatal("Supersteps wrong")
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestFinishIdempotentProperty(t *testing.T) {
	f := func(sim []float64) bool {
		r := &JobResult{}
		for i, s := range sim {
			r.Steps = append(r.Steps, StepStats{Step: i + 1, SimSeconds: math.Abs(s)})
		}
		r.Finish()
		a := r.SimSeconds
		r.Finish()
		return r.SimSeconds == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStepStatsFold(t *testing.T) {
	// Not commutative, so the result pins the order: rows left to right,
	// then onto the seed.
	reduce := func(a, b float64) float64 { return 2*a + b }
	var io diskio.Snapshot
	io.Bytes[diskio.SeqRead] = 100
	rows := []WorkerStep{
		{Worker: 0, Host: 0, Updated: 5, Produced: 7, NetOut: 40, IO: io, MemBytes: 10,
			Parts: IOBreakdown{Vt: 3}, EstEt: 1, McoBytes: 2,
			CPUSeconds: 1, DiskSeconds: 2, NetSeconds: 3, Aggregate: 1, AggSet: true},
		{Worker: 1, Host: 1, Updated: 6, Produced: 8, NetOut: 50, IO: io, MemBytes: 30,
			Parts: IOBreakdown{Vt: 4}, EstEt: 1, McoBytes: 3,
			CPUSeconds: 4, DiskSeconds: 1, NetSeconds: 2, Aggregate: 2, AggSet: true},
		{Worker: 2, Host: 0, Updated: 7, Produced: 9, NetOut: 60, IO: io, MemBytes: 20,
			Parts: IOBreakdown{Vt: 5}, EstEt: 1, McoBytes: 4,
			CPUSeconds: 0.5, DiskSeconds: 0.5, NetSeconds: 1, Aggregate: 3, AggSet: true},
		{Worker: 3, Host: 3, Updated: 1}, // contributes no aggregate
	}
	var st StepStats
	if !st.Fold(rows, reduce, false) {
		t.Fatal("Fold reports the aggregate unset")
	}
	if st.Updated != 19 || st.Produced != 24 || st.NetBytes != 150 ||
		st.IO.Bytes[diskio.SeqRead] != 300 || st.Parts.Vt != 12 || st.EstEt != 3 || st.McoBytes != 9 {
		t.Fatalf("sums = %+v", st)
	}
	if st.CPUSeconds != 5.5 || st.DiskSeconds != 3.5 {
		t.Fatalf("CPUSeconds, DiskSeconds = %g, %g, want 5.5, 3.5", st.CPUSeconds, st.DiskSeconds)
	}
	if st.MemBytes != 30 || st.NetSeconds != 3 {
		t.Fatalf("MemBytes, NetSeconds = %d, %g, want the maxima 30, 3", st.MemBytes, st.NetSeconds)
	}
	// Host 0 runs workers 0 and 2 serially: 6+2 s, more than host 1's 7 s.
	if st.SimSeconds != 8 {
		t.Fatalf("SimSeconds = %g, want host 0's 8", st.SimSeconds)
	}
	// ((1, 2) → 4, 3) → 11.
	if st.Aggregate != 11 {
		t.Fatalf("Aggregate = %g, want 11", st.Aggregate)
	}

	// A set seed: the rows reduce together first, then onto it.
	seeded := StepStats{Aggregate: 5}
	seeded.Fold(rows, reduce, true)
	if seeded.Aggregate != 2*5+11 {
		t.Fatalf("seeded Aggregate = %g, want 21", seeded.Aggregate)
	}
	// An unset seed is overwritten, whatever it holds.
	unset := StepStats{Aggregate: 5}
	unset.Fold(rows, reduce, false)
	if unset.Aggregate != 11 {
		t.Fatalf("unset-seed Aggregate = %g, want 11", unset.Aggregate)
	}
	// No contribution leaves the seed as it is.
	if unset.Fold(rows[3:], reduce, false) || unset.Aggregate != 11 {
		t.Fatalf("a row without an aggregate changed it: %g", unset.Aggregate)
	}

	// Rejoin rows carry no seconds: SimSeconds stays, counts add.
	rejoin := []WorkerStep{{Worker: 1, Host: 1, Updated: 2}, {Worker: 2, Host: 0, Updated: 3}}
	before := st.SimSeconds
	st.Fold(rejoin, reduce, true)
	if st.SimSeconds != before || st.Updated != 24 {
		t.Fatalf("after rejoin rows SimSeconds = %g (was %g), Updated = %d", st.SimSeconds, before, st.Updated)
	}
}
