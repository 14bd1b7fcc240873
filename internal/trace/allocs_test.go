//go:build !race

package trace

import (
	"testing"

	"funcx/internal/types"
)

// Every sampled task derives its trace id on submit, and the OTLP
// exporter derives a span id per span: each costs the string it
// returns and nothing else. (The race detector allocates on its own
// account, hence the build tag.)
func TestTraceIDAllocs(t *testing.T) {
	id, dag := types.TaskID("4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17"), types.DAGID("d1")
	if n := testing.AllocsPerRun(100, func() { _ = TraceID(id, "") }); n != 1 {
		t.Errorf("TraceID: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = TraceID(id, dag) }); n != 1 {
		t.Errorf("TraceID of a DAG node: %v allocations, want 1", n)
	}
	span := string(id) + "/queued"
	if n := testing.AllocsPerRun(100, func() { _ = SpanID(span) }); n != 1 {
		t.Errorf("SpanID: %v allocations, want 1", n)
	}
}
