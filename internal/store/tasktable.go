package store

import (
	"hash/maphash"
	"sync"
	"time"

	"funcx/internal/taskrec"
	"funcx/internal/types"
)

// taskStripes is how many locks the task table spreads its records
// over: enough that the dispatch, result and submit paths of different
// tasks rarely meet on one.
const taskStripes = 64

// TaskTable is the third kind of store object beside Hash and Queue:
// one taskrec.Record per task, changed only by taskrec.Transition. A
// transition, its journal record and the publication of the lifecycle
// events it emits all happen under the record's stripe lock, so every
// observer — the journal, the event stream, a reader — sees one
// task's transitions in one order, with no lock shared between tasks
// of different stripes.
//
// Lock order: stripe, then the journal's freeze lock (shared, for the
// length of the map write and the append only). The publish hook runs
// after the freeze lock is released, still under the stripe, and may
// use the rest of the store; it must not come back to the table.
type TaskTable struct {
	stripes [taskStripes]taskStripe
	seed    maphash.Seed
	now     func() time.Time
	j       *journal // nil in pure in-memory mode
}

type taskStripe struct {
	mu   sync.Mutex
	recs map[types.TaskID]taskrec.Record
}

func newTaskTable() *TaskTable {
	t := &TaskTable{seed: maphash.MakeSeed(), now: time.Now}
	for i := range t.stripes {
		t.stripes[i].recs = make(map[types.TaskID]taskrec.Record)
	}
	return t
}

func (t *TaskTable) stripe(id types.TaskID) *taskStripe {
	return &t.stripes[maphash.String(t.seed, string(id))%taskStripes]
}

// Apply runs one transition. When the event applies to the record it
// is stored and journaled, publish is called with the record's owner
// for each lifecycle event the transition emitted, and the new record
// is returned with true; otherwise nothing happens and ok is false.
func (t *TaskTable) Apply(ev taskrec.Event, publish func(types.UserID, types.TaskEvent)) (taskrec.Record, bool) {
	st := t.stripe(ev.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, out, ok := t.applyLocked(st, ev)
	for i := range out {
		publish(rec.Owner(), out[i])
	}
	return rec, ok
}

// applyLocked transitions, stores and journals; st.mu is held.
func (t *TaskTable) applyLocked(st *taskStripe, ev taskrec.Event) (taskrec.Record, []types.TaskEvent, bool) {
	rec, out, ok := taskrec.Transition(st.recs[ev.ID], ev)
	if !ok {
		return rec, nil, false
	}
	if t.j != nil {
		t.j.lock()
		defer t.j.unlock()
		op := make([]byte, 1, 64+len(ev.ID)+len(ev.Owner)+len(ev.Endpoint)+len(ev.Frame))
		op[0] = opTask
		t.j.record(taskrec.AppendEvent(op, ev))
	}
	st.recs[ev.ID] = rec
	return rec, out, true
}

// Get returns a task's record and whether the table has one. A record
// whose scheduled retirement is due reads as retired even before the
// janitor has swept it.
func (t *TaskTable) Get(id types.TaskID) (taskrec.Record, bool) {
	st := t.stripe(id)
	st.mu.Lock()
	rec, ok := st.recs[id]
	st.mu.Unlock()
	if ok && rec.Expired(t.now()) {
		rec = rec.Retired()
	}
	return rec, ok
}

// Delete removes a record outright. It is not a lifecycle transition:
// the task was never enqueued after all, or now lives on another shard.
func (t *TaskTable) Delete(id types.TaskID) {
	st := t.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.recs[id]; !ok {
		return
	}
	if t.j != nil {
		t.j.lock()
		defer t.j.unlock()
		t.j.record(appendString([]byte{opTaskDel}, string(id)))
	}
	delete(st.recs, id)
}

// Range calls f for every record. Each stripe is copied out before f
// sees it, so f may use the table.
func (t *TaskTable) Range(f func(types.TaskID, taskrec.Record)) {
	type row struct {
		id  types.TaskID
		rec taskrec.Record
	}
	var rows []row
	for i := range t.stripes {
		st := &t.stripes[i]
		rows = rows[:0]
		st.mu.Lock()
		for id, rec := range st.recs {
			rows = append(rows, row{id, rec})
		}
		st.mu.Unlock()
		for _, r := range rows {
			f(r.id, r.rec)
		}
	}
}

// purge retires every record whose scheduled retirement is due,
// returning how many. The retirements are journaled like any other
// transition, so a replayed table equals the live one.
func (t *TaskTable) purge() int {
	now, n := t.now(), 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, rec := range st.recs {
			if rec.Expired(now) {
				t.applyLocked(st, taskrec.Event{Kind: taskrec.Retire, ID: id})
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// replay applies one journaled event during recovery.
func (t *TaskTable) replay(ev taskrec.Event) bool {
	st := t.stripe(ev.ID)
	rec, _, ok := taskrec.Transition(st.recs[ev.ID], ev)
	if ok {
		st.recs[ev.ID] = rec
	}
	return ok
}
