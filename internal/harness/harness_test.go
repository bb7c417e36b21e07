package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps each experiment in test-friendly territory.
func quickOpts() Options {
	return Options{Scale: 0.08, Workers: 3, LargeWorkers: 4, Quick: true}
}

// ran memoises each experiment's quick-scale tables, so the sweep and the
// Test*Shape* tests share one run per experiment (tests in this package
// are sequential; a failed run is not cached).
var ran = map[string][]*Table{}

func mustRun(t *testing.T, name string) []*Table {
	t.Helper()
	if tables, ok := ran[name]; ok {
		return tables
	}
	exp, ok := ByName(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	tables, err := exp.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s table %s has no rows", name, tb.ID)
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		if !strings.Contains(buf.String(), tb.ID) {
			t.Fatalf("%s: printed table missing its id", name)
		}
	}
	ran[name] = tables
	return tables
}

func cellFloat(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric: %v", tb.ID, row, col, tb.Rows[row][col], err)
	}
	return v
}

func colIndex(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, h := range tb.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (header %v)", tb.ID, name, tb.Header)
	return -1
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	for _, exp := range Experiments {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			mustRun(t, exp.Name)
		})
	}
}

func TestFig2ShapeRuntimeDropsWithBuffer(t *testing.T) {
	tables := mustRun(t, "fig2")
	pr := tables[0]
	// The first row is the smallest buffer, the last is "mem": runtime
	// must fall and the disk-message share must fall to zero.
	first := cellFloat(t, pr, 0, 1)
	last := cellFloat(t, pr, len(pr.Rows)-1, 1)
	if !(first > last) {
		t.Fatalf("fig2: runtime %.4f (tiny buffer) should exceed %.4f (mem)", first, last)
	}
	if pct := cellFloat(t, pr, len(pr.Rows)-1, 2); pct != 0 {
		t.Fatalf("fig2: mem row should have 0%% messages on disk, got %g", pct)
	}
	if pct := cellFloat(t, pr, 0, 2); pct < 50 {
		t.Fatalf("fig2: starved buffer should spill most messages, got %g%%", pct)
	}
}

func TestFig8ShapeBpullBeatsPushUnderPressure(t *testing.T) {
	tables := mustRun(t, "fig8")
	// PageRank table: b-pull and hybrid must beat push on every dataset.
	pr := tables[0]
	pushCol := colIndex(t, pr, "push")
	bpullCol := colIndex(t, pr, "b-pull")
	hybridCol := colIndex(t, pr, "hybrid")
	for r := range pr.Rows {
		push := cellFloat(t, pr, r, pushCol)
		bpull := cellFloat(t, pr, r, bpullCol)
		hybrid := cellFloat(t, pr, r, hybridCol)
		if !(bpull < push) {
			t.Errorf("fig8 %s: b-pull %.4f should beat push %.4f", pr.Rows[r][0], bpull, push)
		}
		if hybrid > 1.2*bpull+1e-9 {
			t.Errorf("fig8 %s: hybrid %.4f should track the winner (b-pull %.4f)",
				pr.Rows[r][0], hybrid, bpull)
		}
	}
}

func TestFig10ShapePullIOWorst(t *testing.T) {
	tables := mustRun(t, "fig10")
	pr := tables[0] // PageRank
	pushCol := colIndex(t, pr, "push")
	pullCol := colIndex(t, pr, "pull")
	bpullCol := colIndex(t, pr, "b-pull")
	for r := range pr.Rows {
		pull := cellFloat(t, pr, r, pullCol)
		bpull := cellFloat(t, pr, r, bpullCol)
		if !(pull > bpull) {
			t.Errorf("fig10 %s: pull I/O %g should exceed b-pull %g", pr.Rows[r][0], pull, bpull)
		}
		// The paper's headline under memory pressure: Eq. (8) < Eq. (7).
		if push := cellFloat(t, pr, r, pushCol); !(bpull < push) {
			t.Errorf("fig10 %s: b-pull I/O %g should undercut push %g", pr.Rows[r][0], bpull, push)
		}
	}
}

func TestFig14HasSwitchColumns(t *testing.T) {
	tables := mustRun(t, "fig14")
	if tables[0].ID != "fig14a" || len(tables) != 4 {
		t.Fatalf("fig14 should produce 4 tables, got %d", len(tables))
	}
	// The Qt table carries a mode column taking b-pull or push values.
	sawMode := map[string]bool{}
	for _, row := range tables[0].Rows {
		sawMode[row[1]] = true
	}
	if !sawMode["b-pull"] && !sawMode["push"] {
		t.Fatalf("fig14a modes = %v", sawMode)
	}
}

func TestFig15ShapePushMDegradesFaster(t *testing.T) {
	tables := mustRun(t, "fig15")
	pm, hy := tables[0], tables[1]
	// Fewest workers (first column after graph) versus most: the
	// degradation factor of pushM should exceed hybrid's.
	last := len(pm.Header) - 1
	for r := range pm.Rows {
		pmF := cellFloat(t, pm, r, 1) / cellFloat(t, pm, r, last)
		hyF := cellFloat(t, hy, r, 1) / cellFloat(t, hy, r, last)
		if !(pmF > hyF) {
			t.Errorf("fig15 %s: pushM degradation %.2fx should exceed hybrid %.2fx",
				pm.Rows[r][0], pmF, hyF)
		}
	}
}

func TestFig16ShapeLoadingRatios(t *testing.T) {
	tables := mustRun(t, "fig16")
	rt, iob := tables[0], tables[1]
	for r := range rt.Rows {
		if base := cellFloat(t, rt, r, 1); base != 1 {
			t.Fatalf("fig16 adj ratio should be 1, got %g", base)
		}
		ve := cellFloat(t, iob, r, 2)
		both := cellFloat(t, iob, r, 3)
		if !(ve >= 1) || !(both > ve) {
			t.Errorf("fig16 %s: I/O ratios adj=1 <= VE-BLOCK=%.2f < adj+VE-BLOCK=%.2f violated",
				iob.Rows[r][0], ve, both)
		}
	}
}

func TestFig18ShapeBpullSavesTraffic(t *testing.T) {
	tables := mustRun(t, "fig18")
	tb := tables[0]
	// Sum across supersteps: concatenation alone should save b-pull
	// roughly half the bytes (paper: "almost 50% reduction").
	var push, bpull float64
	for r := range tb.Rows {
		if tb.Rows[r][1] != "-" {
			push += cellFloat(t, tb, r, 1)
		}
		if tb.Rows[r][2] != "-" {
			bpull += cellFloat(t, tb, r, 2)
		}
	}
	if !(bpull < push*0.85) {
		t.Fatalf("fig18: b-pull bytes %.0f should be well below push %.0f", bpull, push)
	}
}

func TestFig23ShapeMemoryFallsIOGrows(t *testing.T) {
	tables := mustRun(t, "fig23")
	mem, iob := tables[0], tables[1]
	nRows := len(mem.Rows)
	if nRows < 2 {
		t.Fatal("need at least two sweep points")
	}
	memFirst := cellFloat(t, mem, 0, 1)
	memLast := cellFloat(t, mem, nRows-1, 1)
	if !(memLast < memFirst) {
		t.Errorf("fig23: PageRank memory should fall with more Vblocks: %g -> %g", memFirst, memLast)
	}
	ioFirst := cellFloat(t, iob, 0, 1)
	ioLast := cellFloat(t, iob, nRows-1, 1)
	if !(ioLast > ioFirst) {
		t.Errorf("fig23: PageRank I/O should grow with more Vblocks: %g -> %g", ioFirst, ioLast)
	}
}

func TestFig26ShapeCombiningRatioGrowsWithThreshold(t *testing.T) {
	tables := mustRun(t, "fig26")
	cr := tables[1]
	first := cellFloat(t, cr, 0, 1)
	last := cellFloat(t, cr, len(cr.Rows)-1, 1)
	if !(last >= first) {
		t.Errorf("fig26: pushM+com combining ratio should not fall with threshold: %g -> %g", first, last)
	}
	// b-pull's ratio is threshold-independent.
	bfirst := cellFloat(t, cr, 0, 2)
	blast := cellFloat(t, cr, len(cr.Rows)-1, 2)
	if bfirst != blast {
		t.Errorf("fig26: b-pull ratio should be threshold-independent: %g vs %g", bfirst, blast)
	}
}

func TestTable5ShapeCacheCliff(t *testing.T) {
	tables := mustRun(t, "table5")
	pr := tables[0] // PageRank
	rowOf := func(name string) int {
		for i, r := range pr.Rows {
			if r[0] == name {
				return i
			}
		}
		t.Fatalf("table5 missing scenario %s", name)
		return -1
	}
	for col := 1; col < len(pr.Header); col++ {
		orig := cellFloat(t, pr, rowOf("original"), col)
		extMem := cellFloat(t, pr, rowOf("ext-mem"), col)
		v3 := cellFloat(t, pr, rowOf("ext-edge-v3"), col)
		v25 := cellFloat(t, pr, rowOf("ext-edge-v2.5"), col)
		if extMem < orig*0.5 || extMem > orig*2+1e-9 {
			t.Errorf("table5 %s: ext-mem %.4f should track original %.4f", pr.Header[col], extMem, orig)
		}
		if !(v25 > 3*v3) {
			t.Errorf("table5 %s: v2.5 %.4f should be far above v3 %.4f (cache cliff)",
				pr.Header[col], v25, v3)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("fig99"); ok {
		t.Fatal("unknown experiment should not resolve")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestFig9ShapeSSDKeepsOrdering(t *testing.T) {
	tables := mustRun(t, "fig9")
	pr := tables[0]
	pushCol := colIndex(t, pr, "push")
	pushMCol := colIndex(t, pr, "pushM")
	bpullCol := colIndex(t, pr, "b-pull")
	for r := range pr.Rows {
		push := cellFloat(t, pr, r, pushCol)
		pushM := cellFloat(t, pr, r, pushMCol)
		bpull := cellFloat(t, pr, r, bpullCol)
		// SSDs do not change who wins: b-pull < pushM < push.
		if !(bpull < pushM && pushM < push) {
			t.Errorf("fig9 %s: ordering violated: b-pull %.4f, pushM %.4f, push %.4f",
				pr.Rows[r][0], bpull, pushM, push)
		}
	}
}

func TestFig17ShapeBpullSilentFirstStep(t *testing.T) {
	tables := mustRun(t, "fig17")
	tb := tables[0]
	// "b-pull starts exchanging messages from the 2nd superstep."
	if v := cellFloat(t, tb, 0, 3); v != 0 {
		t.Fatalf("fig17: b-pull blocking time at superstep 1 = %g, want 0", v)
	}
	// Thereafter its blocking time is comparable to push's (within 2x).
	for r := 1; r < len(tb.Rows); r++ {
		push := cellFloat(t, tb, r, 1)
		bpull := cellFloat(t, tb, r, 3)
		if push > 0 && bpull > 2*push {
			t.Errorf("fig17 step %d: b-pull blocking %.5f far above push %.5f", r+1, bpull, push)
		}
	}
}

func TestFig26ShapeSmallThresholdNotAmortised(t *testing.T) {
	tables := mustRun(t, "fig26")
	rt := tables[0]
	// At the smallest threshold, sender-side combining costs more than it
	// saves: pushM+com >= pushM (Appendix E's finding).
	pm := cellFloat(t, rt, 0, 1)
	pmc := cellFloat(t, rt, 0, 2)
	if pmc < pm {
		t.Errorf("fig26: at the smallest threshold pushM+com %.4f should not beat pushM %.4f", pmc, pm)
	}
	// b-pull's runtime is threshold-independent.
	b0 := cellFloat(t, rt, 0, 3)
	bN := cellFloat(t, rt, len(rt.Rows)-1, 3)
	if b0 != bN {
		t.Errorf("fig26: b-pull runtime should not vary with threshold: %g vs %g", b0, bN)
	}
}

func TestFig11PredictionRatiosFinite(t *testing.T) {
	tables := mustRun(t, "fig11")
	for _, tb := range tables {
		for r := range tb.Rows {
			for c := 1; c < len(tb.Header); c++ {
				cell := tb.Rows[r][c]
				if cell == "-" {
					continue
				}
				v := cellFloat(t, tb, r, c)
				if v < 0 {
					t.Fatalf("%s: negative ratio %g at row %d", tb.ID, v, r)
				}
			}
		}
	}
}

func TestReassignChaosShape(t *testing.T) {
	tables := mustRun(t, "reassignchaos")
	tb := tables[0]
	reCol := colIndex(t, tb, "reassigns")
	valCol := colIndex(t, tb, "values")
	identical := 0
	for r := range tb.Rows {
		switch tb.Rows[r][valCol] {
		case "identical":
			identical++
			if n := cellFloat(t, tb, r, reCol); n < 1 {
				t.Errorf("reassignchaos row %d: completed with %g reassignments, want >= 1", r, n)
			}
		case "no-survivors":
			// A schedule that kills every machine is a typed failure row.
		default:
			t.Errorf("reassignchaos row %d: values column %q", r, tb.Rows[r][valCol])
		}
	}
	if identical == 0 {
		t.Fatal("reassignchaos: no leg completed; the campaign never exercised adoption")
	}
}
