package taskrec

import (
	"reflect"
	"testing"
	"time"

	"funcx/internal/types"
)

var at = time.Unix(1_700_000_000, 0)

// event is a well-formed event of kind k for task "t" on endpoint "ep",
// attempt 1: the one every cell of the table below applies.
func event(k Kind) Event {
	ev := Event{Kind: k, ID: "t", Owner: "alice", Endpoint: "ep", Attempt: 1, At: at}
	switch k {
	case Place, Release, Reroute, Requeue:
		ev.Frame = []byte("task")
	case Result:
		ev.Status, ev.Frame = types.TaskSuccess, []byte("result")
	case Lose:
		ev.Frame = []byte("lost")
	case Retire:
		ev.At = time.Time{}
	}
	return ev
}

// recordIn builds a record in the given status through the transitions
// that lead there.
func recordIn(t *testing.T, status types.TaskStatus) Record {
	t.Helper()
	var path []Event
	switch status {
	case "":
	case types.TaskPending:
		path = []Event{event(Hold)}
	case types.TaskQueued:
		path = []Event{event(Place)}
	case types.TaskDispatched:
		path = []Event{event(Place), event(Dispatched)}
	case types.TaskRunning:
		path = []Event{event(Place), event(Running)}
	case types.TaskSuccess:
		path = []Event{event(Place), event(Result)}
	case types.TaskFailed:
		failed := event(Result)
		failed.Status = types.TaskFailed
		path = []Event{event(Place), failed}
	case types.TaskLost:
		path = []Event{event(Place), event(Lose)}
	default:
		t.Fatalf("no path to status %q", status)
	}
	var rec Record
	for _, ev := range path {
		var ok bool
		if rec, _, ok = Transition(rec, ev); !ok {
			t.Fatalf("path to %q: %s did not apply", status, ev.Kind)
		}
	}
	if rec.Status() != status {
		t.Fatalf("path to %q ended in %q", status, rec.Status())
	}
	return rec
}

// cell is what one (status, event) pair must do: the status it leaves
// and the statuses of the events it emits, in order. A nil cell is a
// no-op: record unchanged, nothing emitted, ok false.
type cell struct {
	status types.TaskStatus
	emits  []types.TaskStatus
}

func to(status types.TaskStatus, emits ...types.TaskStatus) *cell { return &cell{status, emits} }

const (
	pending    = types.TaskPending
	queued     = types.TaskQueued
	dispatched = types.TaskDispatched
	running    = types.TaskRunning
	success    = types.TaskSuccess
	failed     = types.TaskFailed
	lost       = types.TaskLost
)

// transitions is the whole lifecycle: every record status (the zero
// status is a task the table has not seen) against every event kind.
// The DAG* statuses name graph events and are never a record's.
var transitions = map[types.TaskStatus]map[Kind]*cell{
	"": {
		Place: to(queued, queued), Hold: to(pending, pending), Release: nil, Reroute: nil, Requeue: nil,
		Dispatched: nil, Running: nil, Result: to(success, success), Lose: nil, Retire: nil,
	},
	pending: {
		Place: nil, Hold: nil, Release: to(queued, queued), Reroute: nil, Requeue: nil,
		Dispatched: nil, Running: nil, Result: to(success, success), Lose: to(lost, lost), Retire: nil,
	},
	queued: {
		Place: nil, Hold: nil, Release: nil, Reroute: to(queued, queued), Requeue: to(queued, queued),
		Dispatched: to(dispatched, dispatched), Running: to(running, dispatched, running),
		Result: to(success, success), Lose: to(lost, lost), Retire: nil,
	},
	dispatched: {
		Place: nil, Hold: nil, Release: nil, Reroute: to(queued, queued), Requeue: to(queued, queued),
		Dispatched: to(dispatched, dispatched), Running: to(running, running),
		Result: to(success, success), Lose: to(lost, lost), Retire: nil,
	},
	running: {
		Place: nil, Hold: nil, Release: nil, Reroute: to(queued, queued), Requeue: to(queued, queued),
		Dispatched: nil, Running: to(running, running),
		Result: to(success, success), Lose: to(lost, lost), Retire: nil,
	},
	success: {
		Place: nil, Hold: nil, Release: nil, Reroute: nil, Requeue: nil,
		Dispatched: nil, Running: nil, Result: nil, Lose: nil, Retire: to(success),
	},
	failed: {
		Place: nil, Hold: nil, Release: nil, Reroute: nil, Requeue: nil,
		Dispatched: nil, Running: nil, Result: nil, Lose: nil, Retire: to(failed),
	},
	lost: {
		Place: nil, Hold: nil, Release: nil, Reroute: nil, Requeue: nil,
		Dispatched: nil, Running: nil, Result: nil, Lose: nil, Retire: to(lost),
	},
}

func TestTransitionTable(t *testing.T) {
	statuses := []types.TaskStatus{"", pending, queued, dispatched, running, success, failed, lost}
	if len(transitions) != len(statuses) {
		t.Fatalf("table has %d status rows, want %d", len(transitions), len(statuses))
	}
	for _, status := range statuses {
		row := transitions[status]
		for k := Kind(1); int(k) < len(kindNames); k++ {
			want, listed := row[k]
			if !listed {
				t.Errorf("%q × %s: the table has no cell", status, k)
				continue
			}
			before := recordIn(t, status)
			after, out, ok := Transition(before, event(k))
			if want == nil {
				if ok || len(out) != 0 || !reflect.DeepEqual(after, before) {
					t.Errorf("%q × %s: want a no-op, got ok=%v, %d events, record %+v", status, k, ok, len(out), after)
				}
				continue
			}
			var emitted []types.TaskStatus
			for _, ev := range out {
				emitted = append(emitted, ev.Status)
				if ev.TaskID != "t" || !ev.Time.Equal(at) {
					t.Errorf("%q × %s: emitted %+v, want task t at %v", status, k, ev, at)
				}
			}
			if !ok || after.Status() != want.status || !reflect.DeepEqual(emitted, want.emits) {
				t.Errorf("%q × %s: ok=%v status %q emits %v; want status %q emits %v",
					status, k, ok, after.Status(), emitted, want.status, want.emits)
			}
		}
	}
}

// What a transition records and emits beyond the status.
func TestTransitionFields(t *testing.T) {
	place := event(Place)
	place.TS, place.Memoize = 3*time.Millisecond, true
	rec, out, _ := Transition(Record{}, place)
	if rec.Owner() != "alice" || rec.Endpoint() != "ep" || rec.TS() != 3*time.Millisecond || !rec.Memoize() || string(rec.Task()) != "task" {
		t.Fatalf("placed record = %+v", rec)
	}
	if out[0].EndpointID != "ep" {
		t.Fatalf("queued event = %+v", out[0])
	}

	move := event(Reroute)
	move.Endpoint, move.Attempt, move.Frame = "ep2", 2, []byte("task2")
	rec, out, _ = Transition(rec, move)
	if rec.Endpoint() != "ep2" || string(rec.Task()) != "task2" || out[0].EndpointID != "ep2" || rec.Owner() != "alice" || !rec.Memoize() {
		t.Fatalf("rerouted record = %+v, event %+v", rec, out[0])
	}

	// A signal from the endpoint or the attempt the task has left.
	for name, stale := range map[string]Event{
		"dispatched by the old endpoint": event(Dispatched),
		"running on the old endpoint":    event(Running),
		"dispatch of the old attempt":    {Kind: Dispatched, ID: "t", Endpoint: "ep2", Attempt: 1, At: at},
	} {
		if after, out, ok := Transition(rec, stale); ok || len(out) != 0 || !reflect.DeepEqual(after, rec) {
			t.Errorf("%s applied: %+v", name, after)
		}
	}

	land := event(Result)
	land.DAGID = "g"
	rec, out, _ = Transition(rec, land)
	if string(rec.Result()) != "result" || string(out[0].Result) != "result" || out[0].DAGID != "g" || out[0].EndpointID != "ep2" {
		t.Fatalf("landed record = %+v, event %+v", rec, out[0])
	}
	// First terminal wins.
	if after, _, ok := Transition(rec, event(Lose)); ok || after.Status() != success {
		t.Fatalf("lose after success: ok=%v, status %q", ok, after.Status())
	}

	// A deadline schedules the retirement once; reads past it see the
	// record retired; retiring keeps the status and nothing else.
	later := event(Retire)
	later.At = at.Add(time.Minute)
	rec, _, ok := Transition(rec, later)
	if !ok || rec.Expired(at) || !rec.Expired(at.Add(2*time.Minute)) || rec.Result() == nil {
		t.Fatalf("scheduled retirement: ok=%v, record %+v", ok, rec)
	}
	if _, _, ok := Transition(rec, later); ok {
		t.Fatal("a second deadline rescheduled the retirement")
	}
	rec, _, ok = Transition(rec, event(Retire))
	if !ok || !reflect.DeepEqual(rec, Record{status: success}) {
		t.Fatalf("retired record = %+v, ok=%v", rec, ok)
	}
	if _, _, ok := Transition(rec, event(Retire)); ok {
		t.Fatal("retired twice")
	}

	// A result for a task the table has never seen lands only when it
	// names the owner (a memo hit), and records the submission's target.
	orphan := event(Result)
	orphan.Owner = ""
	if _, _, ok := Transition(Record{}, orphan); ok {
		t.Fatal("an ownerless result created a record")
	}
	rec, out, _ = Transition(Record{}, event(Result))
	if rec.Owner() != "alice" || rec.Endpoint() != "ep" || out[0].EndpointID != "ep" {
		t.Fatalf("memo-hit record = %+v, event %+v", rec, out[0])
	}
	// A result must carry a terminal task status: nothing else, a
	// graph's DAG* statuses included, can become a record's.
	for _, st := range []types.TaskStatus{running, types.DAGRunning, types.DAGSuccess, types.DAGFailed} {
		bad := event(Result)
		bad.Status = st
		if _, _, ok := Transition(recordIn(t, queued), bad); ok {
			t.Fatalf("a result landed status %q", st)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for k := Kind(1); int(k) < len(kindNames); k++ {
		ev := event(k)
		ev.TS, ev.Memoize, ev.DAGID = 5*time.Microsecond, k%2 == 0, "g"
		got, err := DecodeEvent(AppendEvent(nil, ev))
		if err != nil || !reflect.DeepEqual(got, ev) {
			t.Errorf("%s: decoded %+v, %v; want %+v", k, got, err, ev)
		}
	}
	for _, status := range []types.TaskStatus{"", pending, running, success} {
		rec := recordIn(t, status)
		if status == success {
			rec.expiry = at.UnixNano()
		}
		enc := append(AppendRecord(nil, rec), "rest"...)
		got, rest, err := DecodeRecord(enc)
		if err != nil || string(rest) != "rest" || !reflect.DeepEqual(got, rec) {
			t.Errorf("%q: decoded %+v, rest %q, %v; want %+v", status, got, rest, err, rec)
		}
		for cut := 0; cut < len(enc)-len("rest"); cut++ {
			if _, _, err := DecodeRecord(enc[:cut]); err == nil {
				t.Fatalf("%q: a record cut to %d of %d bytes decoded", status, cut, len(enc)-4)
			}
		}
	}
	if _, err := DecodeEvent(nil); err == nil {
		t.Fatal("an empty event decoded")
	}
}
