//go:build !race

package forwarder

import (
	"testing"
	"time"

	"funcx/internal/types"
	"funcx/internal/wire"
)

// A running signal costs the forwarder no allocation: the id is read in
// place, and the service is handed the lease's own. (The race detector
// allocates on its own account, hence the build tag.)
func TestRunningSignalAllocs(t *testing.T) {
	var told types.TaskID
	f := New(Config{EndpointID: "ep-1", OnRunning: func(id types.TaskID) { told = id }})
	l := &lease{task: &types.Task{ID: "t1", Walltime: time.Minute}}
	f.leases["t1"] = l
	frame := wire.EncodeTaskStart(&wire.TaskStart{TaskID: "t1", WorkerID: "m-w1", ManagerID: "m"})
	n := testing.AllocsPerRun(100, func() {
		if err := f.running(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("running: %v allocations, want 0", n)
	}
	if told != "t1" || time.Until(l.deadline) < time.Minute {
		t.Fatalf("OnRunning told %q, lease deadline in %v; want t1 and the walltime re-armed", told, time.Until(l.deadline))
	}
}
