//go:build !race

package wire

import (
	"testing"
	"time"

	"funcx/internal/types"
)

// The agent reads every result and the forwarder every running signal
// in place: neither read allocates. (The race detector allocates on
// its own account, hence the build tag.)
func TestInPlaceReadAllocs(t *testing.T) {
	frame := EncodeResult(&types.Result{
		TaskID: "4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17", Output: []byte("out"), WorkerID: "m-w1",
		Completed: time.Unix(1, 2), Timing: types.Timing{TW: time.Millisecond},
		Trace: &types.TraceDeltas{Exec: time.Millisecond, ManagerQueue: time.Microsecond},
	})
	if n := testing.AllocsPerRun(100, func() {
		v, err := ViewResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		v.Timing.TE = time.Microsecond
		v.Trace.AgentQueue = time.Microsecond
		if out := v.Restamp(); &out[0] != &frame[0] {
			t.Fatal("Restamp re-encoded a frame that has both stamp sections")
		}
	}); n != 0 {
		t.Errorf("ViewResult + Restamp: %v allocations, want 0", n)
	}
	start := EncodeTaskStart(&TaskStart{TaskID: "4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17", WorkerID: "m-w1", ManagerID: "m"})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := TaskStartID(start); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TaskStartID: %v allocations, want 0", n)
	}
}
