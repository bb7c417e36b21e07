package vertexfile

import (
	"sync"
	"testing"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// A column copy equals what ReadBcast reads from the file, for both
// parities, while the update scan rewrites the other parity. Run as b-pull
// runs it — a writer rewriting column t&1 chunk by chunk through
// WriteRange while the copy of column (t-1)&1 is taken and two requests
// read it, the parities swapping every superstep — the copy must hold the
// previous superstep's values, the requests must charge 8 logical bytes
// per read and one device page per first touch in the superstep, and the
// copy itself nothing.
func TestColumnInterleavedWithWrites(t *testing.T) {
	const n, lo, chunk = 20000, 100, 512
	s, ct := newStore(t, lo, n)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	want := func(step, i int) float64 { // column written at superstep step
		switch step {
		case -1:
			return -float64(i)
		case 0:
			return float64(i)
		}
		return float64(step)*1e6 + float64(i)
	}
	pages := int64((n*RecordSize + diskio.PageSize - 1) / diskio.PageSize)
	var col Column
	for step := 1; step <= 6; step++ {
		wp, rp := step&1, (step-1)&1
		before := ct.Snapshot()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([]Record, 0, chunk)
			for c := 0; c < n; c += chunk {
				clo, chi := graph.VertexID(lo+c), graph.VertexID(lo+min(c+chunk, n))
				recs = recs[:chi-clo]
				if err := s.ReadRange(clo, chi, recs); err != nil {
					t.Error(err)
					return
				}
				for k := range recs {
					recs[k].Bcast[wp] = want(step, c+k)
				}
				if err := s.WriteRange(clo, chi, recs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		if err := s.ReadColumn(rp, &col); err != nil {
			t.Fatal(err)
		}
		const requests = 2
		scanned := make([][]float64, requests)
		for r := range scanned {
			scanned[r] = make([]float64, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var run ScanRun
				defer s.ChargeRun(&run)
				for i := 0; i < n; i++ {
					val, err := col.Read(graph.VertexID(lo+i), &run)
					if err != nil {
						t.Error(err)
						return
					}
					scanned[r][i] = val
				}
			}()
		}
		wg.Wait()
		d := ct.Snapshot().Sub(before)
		if got, want := d.Bytes[diskio.RandRead], int64(requests*n*BcastSize); got != want {
			t.Fatalf("step %d: %d logical bytes, want %d", step, got, want)
		}
		if got, want := d.Ops[diskio.RandRead], int64(requests*n); got != want {
			t.Fatalf("step %d: %d read ops, want %d", step, got, want)
		}
		if got, want := d.Dev[diskio.RandRead], pages*diskio.PageSize; got != want {
			t.Fatalf("step %d: %d device bytes, want one page per first touch = %d", step, got, want)
		}
		if got, want := d.Bytes[diskio.SeqRead], int64(n*RecordSize); got != want {
			t.Fatalf("step %d: %d sequential bytes read, want the writer's %d: the copy was charged", step, got, want)
		}
		after := ct.Snapshot()
		var written Column
		if err := s.ReadColumn(wp, &written); err != nil {
			t.Fatal(err)
		}
		if ct.Snapshot() != after {
			t.Fatalf("step %d: ReadColumn charged %+v", step, ct.Snapshot().Sub(after))
		}
		var run ScanRun
		for i := 0; i < n; i++ {
			v := graph.VertexID(lo + i)
			for _, c := range []struct {
				parity int
				step   int
				got    float64
			}{{rp, step - 1, scanned[0][i]}, {rp, step - 1, scanned[1][i]}, {wp, step, readOK(t, &written, v, &run)}} {
				direct, err := s.ReadBcast(v, c.parity)
				if err != nil {
					t.Fatal(err)
				}
				if direct != want(c.step, i) || c.got != direct {
					t.Fatalf("step %d: vertex %d parity %d: column %g, ReadBcast %g, want %g", step, i, c.parity, c.got, direct, want(c.step, i))
				}
			}
		}
	}
	if got := reg.Counter("vertexfile.column_reads").Value(); got != 12 {
		t.Fatalf("%d column reads counted, want 12", got)
	}
}

func readOK(t *testing.T, c *Column, v graph.VertexID, run *ScanRun) float64 {
	t.Helper()
	val, err := c.Read(v, run)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// A run of Column reads, charged once by ChargeRun, charges what one
// ChargeDev call per read charges: 8 logical bytes each, and a device page
// at the first touch of a page since the copy was taken. The runs jump
// ahead, revisit pages an earlier run or the same run touched, and span a
// second copy, whose first touches pay again.
func TestColumnTallyEqualsChargeDev(t *testing.T) {
	const n, lo = 3000, 7
	s, ct := newStore(t, lo, n)
	var ref diskio.Counter
	acct := diskio.NewAccountant(&ref)
	base := ct.Snapshot() // the store's creation
	runs := [][]int{
		{0, 1, 2, 130, 131, 700},
		{1, 2, 3},
		{128, 129, 2900, 2999},
		{5, 600, 6, 601},
		{2999},
	}
	for copyNo, parity := range []int{1, 0} {
		var col Column
		if err := s.ReadColumn(parity, &col); err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for r, vs := range runs {
			var run ScanRun
			for _, i := range vs {
				val, err := col.Read(graph.VertexID(lo+i), &run)
				if err != nil {
					t.Fatal(err)
				}
				if want := []float64{float64(i), -float64(i)}[parity]; val != want {
					t.Fatalf("copy %d: vertex %d = %g, want %g", copyNo, i, val, want)
				}
				off := int64(i)*RecordSize + 16 + int64(parity)*8
				var dev int64
				if page := off / diskio.PageSize; !seen[page] {
					seen[page] = true
					dev = diskio.PageSize
				}
				acct.ChargeDev(BcastSize, off, diskio.RandRead, dev)
			}
			s.ChargeRun(&run)
			if got, want := ct.Snapshot().Sub(base), ref.Snapshot(); got != want {
				t.Fatalf("copy %d, after run %d: tallied runs charged %+v, ChargeDev per read %+v", copyNo, r, got, want)
			}
		}
	}
	var col Column
	if err := s.ReadColumn(0, &col); err != nil {
		t.Fatal(err)
	}
	var run ScanRun
	for _, v := range []graph.VertexID{lo - 1, lo + n} {
		if _, err := col.Read(v, &run); err == nil {
			t.Fatalf("Read(%d) outside [%d,%d) succeeded", v, lo, lo+n)
		}
	}
	before := ct.Snapshot()
	s.ChargeRun(&run)
	if ct.Snapshot() != before {
		t.Fatal("failed reads were tallied")
	}
}

// BenchmarkBcastColumn is one superstep's svertex path on a worker: the
// column copied once, then one Pull-Respond request's 10 000 ascending
// reads, tallied and charged once.
func BenchmarkBcastColumn(b *testing.B) {
	const n = 10000
	s, ct := newStore(b, 0, n)
	var col Column
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		if err := s.ReadColumn(0, &col); err != nil {
			b.Fatal(err)
		}
		var run ScanRun
		for v := 0; v < n; v++ {
			val, err := col.Read(graph.VertexID(v), &run)
			if err != nil {
				b.Fatal(err)
			}
			sum += val
		}
		s.ChargeRun(&run)
	}
	if ops := ct.Ops(diskio.RandRead); sum == 0 || ops != int64(b.N)*n {
		b.Fatalf("sum %g, %d read ops charged, want %d", sum, ops, int64(b.N)*n)
	}
}
