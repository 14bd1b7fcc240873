//go:build !race

package endpoint

import (
	"testing"
	"time"

	"funcx/internal/types"
	"funcx/internal/wire"
)

// The agent's part of a result — look the task up, stamp TE and the
// agent-queue delta into the manager's frame, queue the frame upstream
// — allocates nothing. (The race detector allocates on its own
// account, hence the build tag.)
func TestFinishAllocs(t *testing.T) {
	a := New(Config{ID: "ep"})
	st := a.register("m1", &fakeConn{drop: true}, 1)
	const id = types.TaskID("4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17")
	frame := wire.EncodeResult(&types.Result{
		TaskID: id, Output: []byte("out"), Timing: types.Timing{TW: time.Microsecond},
		Trace: &types.TraceDeltas{Exec: time.Microsecond, ManagerQueue: time.Microsecond},
	})
	sent := views(id)[0]
	arrived := &arrivedTask{task: sent.Head, arrived: time.Now()}
	n := testing.AllocsPerRun(100, func() {
		a.inflight[id] = arrived
		st.outstanding[id] = sent
		a.outbox = a.outbox[:0]
		v, err := wire.ViewResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		a.finish(st, &v)
	})
	if n != 0 {
		t.Errorf("finish: %v allocations, want 0", n)
	}
	if len(a.inflight) != 0 || len(st.outstanding) != 0 {
		t.Fatalf("finish left %d in flight, %d outstanding", len(a.inflight), len(st.outstanding))
	}
	got, err := wire.DecodeResult(a.outbox[0].Payload)
	if err != nil || got.Timing.TE == 0 || got.Trace.AgentQueue == 0 {
		t.Fatalf("forwarded %+v, %v; want TE and the agent-queue delta stamped", got, err)
	}
}
