//go:build !race

package store

import (
	"testing"
	"time"
)

// A pop that finds an item arms no timer: the forwarder pops one task
// at a time with a heartbeat-long timeout, and on a busy endpoint the
// queue is rarely empty. (The race detector allocates on its own
// account, hence the build tag.)
func TestBPopReliableNonEmptyAllocs(t *testing.T) {
	q := NewQueue()
	const runs = 100
	for i := 0; i <= runs; i++ {
		if err := q.Push([]byte("task")); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(runs, func() {
		_, receipt, err := q.BPopReliable(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		q.Ack(receipt) //nolint:errcheck
	})
	if n != 0 {
		t.Errorf("BPopReliable on a non-empty queue: %v allocations, want 0", n)
	}
}
