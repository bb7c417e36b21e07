package core

import (
	"fmt"
	"os"
	"path/filepath"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/obs"
)

// newJobTracer resolves the three trace configuration knobs in precedence
// order: an explicit writer, an explicit file path, or an auto-named file
// inside a directory. Returns nil (tracing disabled) when none is set.
func newJobTracer(cfg Config, prog algo.Program, engine Engine) (*obs.Tracer, error) {
	switch {
	case cfg.TraceWriter != nil:
		return obs.NewTracer(cfg.TraceWriter), nil
	case cfg.TracePath != "":
		return obs.OpenTracer(cfg.TracePath)
	case cfg.TraceDir != "":
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s_%s_%04d.jsonl", prog.Name(), engine, obs.NextTraceSeq())
		return obs.OpenTracer(filepath.Join(cfg.TraceDir, name))
	}
	return nil, nil
}
