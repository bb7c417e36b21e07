package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced pass. Parent is the ID of the
// span that caused it (0 for a root); spans of one workload share its
// name as identifier.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps the spans of one workload in memory until the run ends.
// Only the benchmark's own goroutine records, around the calls it makes
// into a layer; nothing inside the program under test is instrumented.
// A nil recorder records nothing, which is how tracing is off.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, StartNs: time.Since(r.origin).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndNs = time.Since(r.origin).Nanoseconds()
}

// start reports when span id began.
func (r *recorder) start(id int) int64 { return r.spans[id-1].StartNs }

// rebuilt adds a span whose interval is known only after the fact (the
// supersteps of a job, from its StepStats).
func (r *recorder) rebuilt(name string, parent int, startNs, endNs int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, StartNs: startNs, EndNs: endNs})
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.workload, seed, r.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
