package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hybridgraph/internal/metrics"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Max(3) // lower: no change
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Max(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after Max = %d, want 11", got)
	}
	r.RegisterFunc("a.func", func() int64 { return 42 })

	snap := r.Snapshot()
	want := map[string]int64{"a.count": 5, "a.gauge": 11, "a.func": 42}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%s] = %d, want %d", k, snap[k], v)
		}
	}

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wantDump := "a.count 5\na.func 42\na.gauge 11\n"
	if buf.String() != wantDump {
		t.Fatalf("WriteTo = %q, want %q", buf.String(), wantDump)
	}
}

func TestNilRegistryAndInstrumentsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Max(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	r.RegisterFunc("z", func() int64 { return 1 })
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry must snapshot empty")
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteTo = %q, %v", buf.String(), err)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				r.Counter("shared").Inc()
				r.Gauge("peak").Max(int64(k))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Gauge("peak").Value(); got != 999 {
		t.Fatalf("peak gauge = %d, want 999", got)
	}
}

func TestTracerWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(JobEvent{Type: EventJobStart, Engine: "hybrid", Algorithm: "pagerank", Workers: 3})
	tr.Emit(WorkerStepEvent{Type: EventWorkerStep,
		WorkerStep: metrics.WorkerStep{Step: 1, Worker: 0, Mode: "push", Produced: 7}})
	tr.Emit(StepEvent{Type: EventStep})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != 3 {
		t.Fatalf("Events = %d, want 3", got)
	}
	sc := bufio.NewScanner(&buf)
	var types []string
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	want := []string{EventJobStart, EventWorkerStep, EventStep}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event types = %v, want %v", types, want)
	}
}

func TestOpenTracerCreatesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := OpenTracer(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit(FaultEvent{Type: EventFault, Step: 3, Worker: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"fault"`) {
		t.Fatalf("journal = %q, want a fault event", data)
	}
}

func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	tr.Emit(StepEvent{Type: EventStep})
	if tr.Events() != 0 || tr.Err() != nil || tr.Close() != nil {
		t.Fatal("nil tracer must no-op")
	}
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) must return a nil tracer")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.n--
	return len(p), nil
}

func TestTracerLatchesFirstError(t *testing.T) {
	tr := NewTracer(&failWriter{n: 1})
	tr.Emit(StepEvent{Type: EventStep})
	tr.Emit(StepEvent{Type: EventStep}) // fails
	tr.Emit(StepEvent{Type: EventStep}) // dropped
	if tr.Events() != 1 {
		t.Fatalf("Events = %d, want 1", tr.Events())
	}
	if tr.Err() == nil {
		t.Fatal("expected a latched error")
	}
}

func TestDebugServerServesMetricsAndVars(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug.test").Add(9)
	srv, err := StartDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "debug.test 9") {
		t.Fatalf("/metrics = %q, want debug.test 9", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "hybridgraph") {
		t.Fatalf("/debug/vars = %q, want a hybridgraph var", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %q, want the pprof index", body)
	}
}

// Both profiles land in their files, and an empty path writes nothing.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i % 7
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile (sink %d)", p, err, sink)
		}
	}
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
