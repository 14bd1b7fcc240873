// Package taskrec is the one record the service keeps per task and the
// one function that moves it. The paper's §4.1 store is a task hash
// plus a queue per endpoint; the follow-up funcX paper tracks each task
// as one record moving through explicit states. A Record is that
// record — owner, placed endpoint, lifecycle status, delivery attempt,
// the task frame and, once landed, the result frame — and Transition
// is the only code that may change one: first terminal wins, a signal
// from an endpoint or attempt the task has left is a no-op, a running
// signal that outruns its dispatch notification emits both.
//
// The package is pure: no clock, no locks, no I/O. The caller
// (store.TaskTable) serializes transitions per record, journals the
// accepted Event — replaying the journal through Transition rebuilds
// the table — and publishes the returned events before it lets the
// next transition of that record in.
package taskrec

import (
	"time"

	"funcx/internal/types"
)

// Kind names a lifecycle event.
type Kind uint8

const (
	// Place puts a new task on an endpoint's queue.
	Place Kind = iota + 1
	// Hold accepts a DAG node that waits on its parents.
	Hold
	// Release puts a held node on an endpoint's queue.
	Release
	// Reroute moves a task to another member of its group (failover).
	Reroute
	// Requeue returns a reclaimed delivery to its own endpoint.
	Requeue
	// Dispatched is the forwarder's notice that the task shipped.
	Dispatched
	// Running is a worker's execution-start signal.
	Running
	// Result lands a result frame: from an endpoint, from the memo
	// cache, or synthesized for a DAG node that cannot run.
	Result
	// Lose lands the synthetic frame of a task the delivery layer gave
	// up on.
	Lose
	// Retire drops a read result: at once, or at the deadline in At.
	Retire
)

var kindNames = [...]string{
	Place: "place", Hold: "hold", Release: "release", Reroute: "reroute", Requeue: "requeue",
	Dispatched: "dispatched", Running: "running", Result: "result", Lose: "lose", Retire: "retire",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one lifecycle event, self-contained so that the journal can
// hold it and replay it. Fields beyond Kind, ID and At matter only to
// the kinds named on them.
type Event struct {
	Kind Kind
	ID   types.TaskID
	// Owner creates the record: Place, Hold, and a Result for a task
	// that was never queued (a memo hit).
	Owner types.UserID
	// Endpoint is where the task is queued (Place, Release, Reroute,
	// Requeue), where the signal came from (Dispatched, Running), or
	// the submission's own target on a Result that creates the record.
	Endpoint types.EndpointID
	// Attempt is the delivery attempt of the frame being queued or
	// dispatched.
	Attempt int
	// TS is the service-side latency component, and Memoize whether the
	// result feeds the memo cache (Place, Release).
	TS      time.Duration
	Memoize bool
	// Status is the terminal status a Result lands.
	Status types.TaskStatus
	// Frame is the task frame (Place, Release, Reroute, Requeue) or the
	// result frame (Result, Lose).
	Frame []byte
	// DAGID is stamped on the pending event of a Hold and on the
	// terminal event.
	DAGID types.DAGID
	// At is when the service observed the event; on Retire, the
	// deadline (zero retires at once).
	At time.Time
}

// Record is the state of one task. The zero Record is a task the table
// has never seen. Its fields change only in Transition.
type Record struct {
	owner    types.UserID
	endpoint types.EndpointID
	status   types.TaskStatus
	attempt  int
	ts       time.Duration
	memoize  bool
	task     []byte
	result   []byte
	expiry   int64 // unix nanoseconds; 0 = none
}

// Owner is the submitting user ("" once retired: a retired id behaves
// like an unknown one on every access-checked surface).
func (r Record) Owner() types.UserID { return r.owner }

// Endpoint is where the task was last queued.
func (r Record) Endpoint() types.EndpointID { return r.endpoint }

// Status is the lifecycle status ("" for the zero Record).
func (r Record) Status() types.TaskStatus { return r.status }

// TS is the service-side latency component stamped on the result.
func (r Record) TS() time.Duration { return r.ts }

// Memoize reports whether the task's result feeds the memo cache.
func (r Record) Memoize() bool { return r.memoize }

// Task is the task frame as last queued (nil while held and once
// retired).
func (r Record) Task() []byte { return r.task }

// Result is the landed result frame (nil before landing and once
// retired).
func (r Record) Result() []byte { return r.result }

// Expired reports whether a scheduled retirement is due.
func (r Record) Expired(now time.Time) bool {
	return r.expiry != 0 && now.UnixNano() > r.expiry
}

// Retired is the record with its result read and dropped: only the
// terminal status stays.
func (r Record) Retired() Record { return Record{status: r.status} }

// queued reports whether the task is somewhere between a queue and a
// worker.
func (r Record) queued() bool {
	return r.status == types.TaskQueued || r.status == types.TaskDispatched || r.status == types.TaskRunning
}

// event builds the lifecycle event a transition emits.
func (r Record) event(ev Event, status types.TaskStatus) types.TaskEvent {
	return types.TaskEvent{TaskID: ev.ID, Status: status, EndpointID: r.endpoint, Time: ev.At}
}

// enqueue is the shared arm of Place, Release, Reroute and Requeue.
func (r Record) enqueue(ev Event) (Record, []types.TaskEvent, bool) {
	r.endpoint, r.attempt, r.task, r.status = ev.Endpoint, ev.Attempt, ev.Frame, types.TaskQueued
	return r, []types.TaskEvent{r.event(ev, types.TaskQueued)}, true
}

// land is the shared arm of Result and Lose.
func (r Record) land(ev Event, status types.TaskStatus) (Record, []types.TaskEvent, bool) {
	r.status, r.result = status, ev.Frame
	out := r.event(ev, status)
	out.Result, out.DAGID = ev.Frame, ev.DAGID
	return r, []types.TaskEvent{out}, true
}

// Transition applies ev to rec. It returns the new record and the
// lifecycle events to publish, in order; ok is false — and the record
// unchanged, with nothing to publish or journal — when the event does
// not apply to the record's state.
func Transition(rec Record, ev Event) (Record, []types.TaskEvent, bool) {
	absent, terminal := rec.status == "", rec.status.Terminal()
	//funcx:exhaustive funcx/internal/taskrec.Kind
	switch ev.Kind {
	case Place:
		if !absent {
			break
		}
		return Record{owner: ev.Owner, ts: ev.TS, memoize: ev.Memoize}.enqueue(ev)
	case Hold:
		if !absent {
			break
		}
		rec = Record{owner: ev.Owner, status: types.TaskPending}
		out := rec.event(ev, types.TaskPending)
		out.DAGID = ev.DAGID
		return rec, []types.TaskEvent{out}, true
	case Release:
		if rec.status != types.TaskPending {
			break
		}
		rec.ts, rec.memoize = ev.TS, ev.Memoize
		return rec.enqueue(ev)
	case Reroute, Requeue:
		if !rec.queued() {
			break
		}
		return rec.enqueue(ev)
	case Dispatched:
		// A dispatch of a queued task, or a redelivery of a dispatched
		// one. Not after running (the signal outran this notice and
		// already emitted it), and not from an endpoint or attempt the
		// task has left.
		if (rec.status != types.TaskQueued && rec.status != types.TaskDispatched) ||
			ev.Endpoint != rec.endpoint || ev.Attempt < rec.attempt {
			break
		}
		rec.status = types.TaskDispatched
		return rec, []types.TaskEvent{rec.event(ev, types.TaskDispatched)}, true
	case Running:
		if !rec.queued() || ev.Endpoint != rec.endpoint {
			break
		}
		var out []types.TaskEvent
		if rec.status == types.TaskQueued {
			// The dispatch this signal proves happened goes first, so the
			// stream order queued ≤ dispatched ≤ running always holds.
			out = append(out, rec.event(ev, types.TaskDispatched))
		}
		rec.status = types.TaskRunning
		return rec, append(out, rec.event(ev, types.TaskRunning)), true
	case Result:
		if terminal || !ev.Status.Terminal() || (absent && ev.Owner == "") {
			break
		}
		if absent {
			rec = Record{owner: ev.Owner, ts: ev.TS}
		}
		if !rec.queued() {
			rec.endpoint = ev.Endpoint
		}
		return rec.land(ev, ev.Status)
	case Lose:
		if absent || terminal {
			break
		}
		return rec.land(ev, types.TaskLost)
	case Retire:
		if !terminal || len(rec.result) == 0 {
			break
		}
		if ev.At.IsZero() {
			return rec.Retired(), nil, true
		}
		if rec.expiry != 0 {
			break
		}
		rec.expiry = ev.At.UnixNano()
		return rec, nil, true
	}
	return rec, nil, false
}
