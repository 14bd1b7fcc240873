package endpoint

import (
	"math/rand"
	"testing"

	"funcx/internal/types"
	"funcx/internal/wire"
)

// The ring against a plain slice, through a seeded mix of pushes at both
// ends and pops that wraps the ring and grows it while wrapped.
func TestTaskQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q taskQueue
	var want []types.TaskID
	next := 0
	view := func() wire.TaskView {
		next++
		return wire.TaskView{Head: &types.Task{ID: types.TaskID(rune(next))}}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			v := view()
			q.PushBack(v)
			want = append(want, v.Head.ID)
		case op < 6:
			v := view()
			q.PushFront(v)
			want = append([]types.TaskID{v.Head.ID}, want...)
		case op == 6 && step%50 == 0: // a frame's worth at once
			q.grow(100)
			for range 100 {
				v := view()
				q.PushBack(v)
				want = append(want, v.Head.ID)
			}
		case len(want) > 0:
			if got := q.PopFront().Head.ID; got != want[0] {
				t.Fatalf("step %d: popped %q, want %q", step, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(want))
		}
	}
	for _, id := range want {
		if got := q.PopFront().Head.ID; got != id {
			t.Fatalf("draining: popped %q, want %q", got, id)
		}
	}
	for i, v := range q.buf {
		if v.Head != nil {
			t.Fatalf("slot %d still holds a task after the queue emptied", i)
		}
	}
}
