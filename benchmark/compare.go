package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spread is a summary's interquartile range as a share of its median:
// how far one run's own samples disagree.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// verdict judges b against a for one metric on one workload.
//
//   - An exact count compares with ==.
//   - Otherwise the threshold is the metric's bound or, for a per-layer
//     metric, which has none, the wider of the two runs' own spreads and
//     at least 1 %, so a metric measured once is not called on rounding.
//   - A bounded metric whose spread in either run is wider than its
//     bound cannot resolve a change of that size: unresolved.
//   - b is worse (better) when its median is off a's by more than the
//     threshold in the bad (good) direction; anything closer is the same.
func verdict(m metricSpec, a, b summary, sameSeed bool) (v string, delta, threshold float64) {
	if a.Median != 0 {
		delta = (b.Median - a.Median) / a.Median
	} else if b.Median != 0 {
		delta = 1
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if m.Exact && sameSeed {
		switch {
		case a.Median == b.Median:
			return "same", delta, 0
		case worse > 0:
			return "worse", delta, 0
		}
		return "better", delta, 0
	}
	noise := max(a.spread(), b.spread())
	threshold = m.Bound
	if threshold == 0 {
		threshold = max(noise, 0.01)
	} else if noise > threshold {
		return "unresolved", delta, threshold
	}
	switch {
	case worse > threshold:
		return "worse", delta, threshold
	case worse < -threshold:
		return "better", delta, threshold
	}
	return "same", delta, threshold
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &results{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints, per workload and metric present in both files,
// both medians, the change, the threshold and the verdict. It returns 1
// when any end-to-end metric or exact count is worse or unresolved, so a
// script can gate on it.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var loaded [2]*results
	for i, path := range []string{pathA, pathB} {
		res, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		loaded[i] = res
	}
	return compareResults(w, loaded[0], loaded[1])
}

func compareResults(w io.Writer, a, b *results) int {
	sameSeed := a.Header.Seed == b.Header.Seed
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n",
		a.Header.Commit, a.Header.Seed, b.Header.Commit, b.Header.Seed)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: exact counts are compared within their bounds, not with ==")
	}
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s   jobs failed: a %d of %d, b %d of %d\n", wa.Name,
			wa.JobsFailed, wa.JobsAttempted, wb.JobsFailed, wb.JobsAttempted)
		fmt.Fprintf(w, "%-34s %14s %14s %9s %9s  %s\n", "metric", "a", "b", "delta", "bound", "verdict")
		row := func(m metricSpec, sa, sb summary, gate bool) {
			v, delta, threshold := verdict(m, sa, sb, sameSeed)
			bound := fmt.Sprintf("%.1f%%", 100*threshold)
			if m.Exact && sameSeed {
				bound = "=="
			}
			fmt.Fprintf(w, "%-34s %14.6g %14.6g %+8.2f%% %9s  %s\n", m.Name, sa.Median, sb.Median, 100*delta, bound, v)
			if gate && (v == "worse" || v == "unresolved") {
				bad++
			}
		}
		for _, m := range endToEndSpecs() {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if okA && okB {
				row(m, sa, sb, true)
			}
		}
		for _, m := range perLayerSpecs() {
			sa, okA := wa.PerLayer[m.Name]
			sb, okB := wb.PerLayer[m.Name]
			if okA && okB {
				row(m, sa, sb, m.Exact && sameSeed)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d gated metrics (end-to-end, exact counts) worse or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nno gated metric (end-to-end, exact counts) worse or unresolved")
	return 0
}
