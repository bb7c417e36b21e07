package vertexfile

import (
	"sync"
	"testing"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// readScan is one ReadBcastRun charged on the spot: the scan read as the
// tests below drive it, a run of one.
func readScan(s *Store, v graph.VertexID, parity int, seen PageSet) (float64, error) {
	var run ScanRun
	defer s.ChargeRun(&run)
	return s.ReadBcastRun(v, parity, seen, &run)
}

// ReadBcastRun serves reads from buffered pages while the update scan
// rewrites the same pages' other parity. Run as b-pull runs it — a writer
// rewriting column t&1 chunk by chunk while concurrent scans read column
// (t-1)&1, the parities swapping every superstep — it must return what
// ReadBcast reads from the file, and charge 8 logical bytes per read and
// one device page per first touch. A page that outlived a write would
// show up one superstep later as the previous value. The store spans
// more pages than the buffer holds, so slots are also evicted and refilled.
func TestScanInterleavedWithWrites(t *testing.T) {
	const n, lo, chunk = 20000, 100, 512
	if n*RecordSize <= scanCachePages*diskio.PageSize {
		t.Fatal("store fits the page buffer: eviction would go untested")
	}
	s, ct := newStore(t, lo, n)
	want := func(step, i int) float64 { // column written at superstep step
		switch step {
		case -1:
			return -float64(i)
		case 0:
			return float64(i)
		}
		return float64(step)*1e6 + float64(i)
	}
	for step := 1; step <= 6; step++ {
		wp, rp := step&1, (step-1)&1
		before := ct.Snapshot()
		var scanMu sync.Mutex
		seen := make(PageSet)
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
		const scanners = 2
		scanned := make([][]float64, scanners)
		for r := range scanned {
			scanned[r] = make([]float64, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					scanMu.Lock()
					val, err := readScan(s, graph.VertexID(lo+i), rp, seen)
					scanMu.Unlock()
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
		if got, want := d.Bytes[diskio.RandRead], int64(scanners*n*BcastSize); got != want {
			t.Fatalf("step %d: %d logical bytes, want %d", step, got, want)
		}
		if got, want := d.Ops[diskio.RandRead], int64(scanners*n); got != want {
			t.Fatalf("step %d: %d read ops, want %d", step, got, want)
		}
		if got, want := d.Dev[diskio.RandRead], int64(len(seen))*diskio.PageSize; got != want {
			t.Fatalf("step %d: %d device bytes, want one page per first touch = %d", step, got, want)
		}
		for i := 0; i < n; i++ {
			direct, err := s.ReadBcast(graph.VertexID(lo+i), rp)
			if err != nil {
				t.Fatal(err)
			}
			if direct != want(step-1, i) {
				t.Fatalf("step %d: ReadBcast(%d) = %g, want %g", step, i, direct, want(step-1, i))
			}
			for r := range scanned {
				if scanned[r][i] != direct {
					t.Fatalf("step %d: scan %d read vertex %d = %g, ReadBcast reads %g", step, r, i, scanned[r][i], direct)
				}
			}
		}
	}
}

// Without an intervening write the buffer reads each touched page once,
// however many scans (and device charges) follow; a restore through
// WriteRange, or a single WriteRecord, must drop the pages it overwrote.
func TestScanPageReadsAndInvalidation(t *testing.T) {
	const n, lo = 1000, 40
	s, ct := newStore(t, lo, n)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	pageReads := reg.Counter("vertexfile.scan_page_reads")
	scan := func(parity int, want func(i int) float64) {
		t.Helper()
		before := ct.DevBytes(diskio.RandRead)
		seen := make(PageSet)
		for i := 0; i < n; i++ {
			got, err := readScan(s, graph.VertexID(lo+i), parity, seen)
			if err != nil {
				t.Fatal(err)
			}
			if got != want(i) {
				t.Fatalf("vertex %d parity %d = %g, want %g", i, parity, got, want(i))
			}
		}
		if got, want := ct.DevBytes(diskio.RandRead)-before, int64(len(seen))*diskio.PageSize; got != want {
			t.Fatalf("scan charged %d device bytes, want %d", got, want)
		}
	}
	pages := int64((n*RecordSize + diskio.PageSize - 1) / diskio.PageSize)

	scan(0, func(i int) float64 { return float64(i) })
	scan(1, func(i int) float64 { return -float64(i) })
	scan(0, func(i int) float64 { return float64(i) })
	if got := pageReads.Value(); got != pages {
		t.Fatalf("%d page reads over three scans with no write, want %d (distinct pages)", got, pages)
	}

	restored := make([]Record, n)
	for i := range restored {
		restored[i] = Record{ID: graph.VertexID(lo + i), Bcast: [2]float64{1e9 + float64(i), 2e9 + float64(i)}}
	}
	if err := s.WriteRange(lo, lo+n, restored); err != nil {
		t.Fatal(err)
	}
	scan(0, func(i int) float64 { return 1e9 + float64(i) })
	scan(1, func(i int) float64 { return 2e9 + float64(i) })
	if got := pageReads.Value(); got != 2*pages {
		t.Fatalf("%d page reads after a full restore, want %d", got, 2*pages)
	}

	rec := restored[n/2]
	rec.Bcast[0] = -7
	if err := s.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	got, err := readScan(s, rec.ID, 0, make(PageSet))
	if err != nil || got != -7 {
		t.Fatalf("scan after WriteRecord = %g, %v; want -7", got, err)
	}
	if got := pageReads.Value(); got != 2*pages+1 {
		t.Fatalf("%d page reads after one WriteRecord, want %d", got, 2*pages+1)
	}
}

// BenchmarkReadBcastRun is one Pull-Respond request's svertex reads: 10 000
// ascending vertices through one PageSet, tallied and charged once.
func BenchmarkReadBcastRun(b *testing.B) {
	const n = 10000
	s, ct := newStore(b, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		seen := make(PageSet)
		var run ScanRun
		for v := 0; v < n; v++ {
			val, err := s.ReadBcastRun(graph.VertexID(v), 0, seen, &run)
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
