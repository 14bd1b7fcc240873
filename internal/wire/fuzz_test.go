package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"funcx/internal/types"
)

// codecs pairs each wire decoder with its re-encoder, closed over the
// concrete record type so the fuzzer can drive every codec with one
// input. A decoder must never panic on arbitrary bytes, and any frame
// it accepts must reach a canonical fixed point:
// encode(decode(encode(decode(x)))) == encode(decode(x)). A frame
// that survives one hop therefore survives every hop unchanged —
// the property the forwarder/agent/manager relay chain relies on.
var codecs = []struct {
	name      string
	roundTrip func([]byte) ([]byte, bool)
}{
	{"task", func(b []byte) ([]byte, bool) {
		t, err := DecodeTask(b)
		if err != nil {
			return nil, false
		}
		return EncodeTask(t), true
	}},
	{"tasks", func(b []byte) ([]byte, bool) {
		ts, err := DecodeTasks(b)
		if err != nil {
			return nil, false
		}
		return EncodeTasks(ts), true
	}},
	{"result", func(b []byte) ([]byte, bool) {
		r, err := DecodeResult(b)
		if err != nil {
			return nil, false
		}
		return EncodeResult(r), true
	}},
	{"registration", func(b []byte) ([]byte, bool) {
		r, err := DecodeRegistration(b)
		if err != nil {
			return nil, false
		}
		return EncodeRegistration(r), true
	}},
	{"capacity", func(b []byte) ([]byte, bool) {
		c, err := DecodeCapacity(b)
		if err != nil {
			return nil, false
		}
		return EncodeCapacity(c), true
	}},
	{"advice", func(b []byte) ([]byte, bool) {
		a, err := DecodeAdvice(b)
		if err != nil {
			return nil, false
		}
		return EncodeAdvice(a), true
	}},
	{"taskstart", func(b []byte) ([]byte, bool) {
		s, err := DecodeTaskStart(b)
		if err != nil {
			return nil, false
		}
		return EncodeTaskStart(s), true
	}},
	{"event", func(b []byte) ([]byte, bool) {
		e, err := DecodeEvent(b)
		if err != nil {
			return nil, false
		}
		return EncodeEvent(e), true
	}},
	{"eventframe", func(b []byte) ([]byte, bool) {
		e, err := DecodeEventFrame(b)
		if err != nil {
			return nil, false
		}
		return encodeEventFrame(e), true
	}},
	{"dag", func(b []byte) ([]byte, bool) {
		g, err := DecodeDAG(b)
		if err != nil {
			return nil, false
		}
		return EncodeDAG(g), true
	}},
	{"status", func(b []byte) ([]byte, bool) {
		s, err := DecodeStatus(b)
		if err != nil {
			return nil, false
		}
		return EncodeStatus(s), true
	}},
}

// seedTask is the task behind the checked-in task and tasks seeds.
var seedTask = &types.Task{
	ID: "t-1", FunctionID: "fn-1", EndpointID: "ep-1", Owner: "alice",
	Container: types.ContainerSpec{Tech: types.ContainerDocker, Image: "img:1"},
	GroupID:   "g-1", Selector: map[string]string{"gpu": "a100", "site": "anl"},
	Payload: []byte(`{"args":[1,2]}`), BodyHash: "abc123", Memoize: true, BatchN: 2,
	Attempt: 2, Walltime: time.Minute, MaxRetries: 3, AtMostOnce: true,
	Submitted: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
	Trace:     &types.TraceContext{Sampled: true, TraceID: "0123456789abcdef0123456789abcdef"},
}

// seedResult is the result behind the checked-in result and event seeds.
var seedResult = &types.Result{
	TaskID: "t-1", Output: []byte(`"ok"`), Completed: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
	Timing:   types.Timing{TS: time.Millisecond, TF: 2 * time.Millisecond, TE: 3 * time.Millisecond, TW: 4 * time.Millisecond},
	WorkerID: "w-1", Memoized: true,
	Trace: &types.TraceDeltas{Exec: time.Millisecond, ManagerQueue: time.Microsecond, AgentQueue: time.Nanosecond},
}

// frameSeeds are the binary frames checked in under
// testdata/fuzz/FuzzDecode (TestFuzzSeedsCurrent keeps the files equal
// to what the encoders write today).
func frameSeeds() map[string][]byte {
	result := EncodeResult(seedResult)
	event := &types.TaskEvent{
		Seq: 7, TaskID: "t-1", Status: types.TaskSuccess, EndpointID: "ep-1", Result: result,
		DAGID: "dag-1", Time: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
	}
	return map[string][]byte{
		"task":  EncodeTask(seedTask),
		"tasks": EncodeTasks([]*types.Task{seedTask, {ID: "t-2", Payload: []byte("y")}, {}}),
		// What a client's concurrent submissions to one endpoint share a
		// POST /v1/tasks as: tasks with nothing the service stamps.
		"tasks_submit": EncodeTasks([]*types.Task{
			{FunctionID: "fn-1", EndpointID: "ep-1", Payload: []byte(`{"args":[1,2]}`), Memoize: true},
			{FunctionID: "fn-2", EndpointID: "ep-1", Walltime: time.Minute, MaxRetries: 3, AtMostOnce: true},
			{FunctionID: "fn-1", EndpointID: "ep-1", Payload: []byte("y"), BatchN: 2},
		}),
		"result":      result,
		"result_lost": EncodeResult(&types.Result{TaskID: "t-2", Err: "lease expired", Lost: true}),
		"capacity": EncodeCapacity(&types.Capacity{
			ManagerID: "m-1", Free: map[string]int{"none": 2, "docker:img:1": 0}, Slots: 3, Prefetch: 4, Total: 8,
		}),
		"taskstart":   EncodeTaskStart(&TaskStart{TaskID: "t-1", WorkerID: "w-1", ManagerID: "m-1"}),
		"event":       EncodeEvent(event),
		"event_frame": encodeEventFrame(event),
		"event_stream": slices.Concat([]byte(EventHeartbeat), encodeEventFrame(event),
			encodeEventFrame(&types.TaskEvent{Seq: 8, TaskID: "t-2", Status: types.TaskQueued}), []byte(EventGap)),
	}
}

func seedFile(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzDecode", name)
}

// The checked-in seeds are the current encoders' output, so the fuzzer
// starts from frames that decode. WIRE_UPDATE_SEEDS=1 rewrites them
// after a deliberate format change.
func TestFuzzSeedsCurrent(t *testing.T) {
	for name, frame := range frameSeeds() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		if os.Getenv("WIRE_UPDATE_SEEDS") != "" {
			if err := os.WriteFile(seedFile(name), []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(seedFile(name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("seed %s is stale: rerun with WIRE_UPDATE_SEEDS=1", name)
		}
	}
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"endpoint_id":"ep1","workers":4,"containers":["py"]}`))
	f.Add([]byte(`{"task_id":"t1","status":"success","time":"2026-01-02T03:04:05.000000006Z"}`))
	f.Add([]byte(`{"task_id":"t1","status":"success","result":"AwAAAAAAAAAA"}`))
	f.Add([]byte(`{"id":"dag1","nodes":{"n":{"key":"n"}},"order":["n"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			enc1, ok := c.roundTrip(data)
			if !ok {
				continue
			}
			enc2, ok := c.roundTrip(enc1)
			if !ok {
				t.Fatalf("%s: decoder rejected its own encoder's output %q (from %q)", c.name, enc1, data)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: round trip is not a fixed point:\n first %q\nsecond %q", c.name, enc1, enc2)
			}
		}
		// A view is its decoder's task beside the input itself, and a
		// batch forwarded as its views' frames is the batch re-encoded.
		if v, err := ViewTask(data); err == nil {
			if t2, _ := DecodeTask(data); !reflect.DeepEqual(v.Head, t2) || !bytes.Equal(v.Raw, data) {
				t.Fatalf("ViewTask(%q) = %+v over %q; DecodeTask says %+v", data, v.Head, v.Raw, t2)
			}
			if next := v.WithAttempt(v.Head.Attempt + 1); !bytes.Equal(next.Raw, EncodeTask(next.Head)) || next.Head.Attempt != v.Head.Attempt+1 {
				t.Fatalf("WithAttempt of %q = %+v over %q", data, next.Head, next.Raw)
			}
		}
		if ts, err := DecodeTasks(data); err == nil {
			canon := EncodeTasks(ts)
			vs, err := ViewTasks(canon)
			if err != nil || len(vs) != len(ts) {
				t.Fatalf("ViewTasks(%q) = %d views, %v; want %d", canon, len(vs), err, len(ts))
			}
			frames := make([][]byte, len(vs))
			for i, v := range vs {
				if !reflect.DeepEqual(v.Head, ts[i]) {
					t.Fatalf("view %d of %q = %+v, want %+v", i, canon, v.Head, ts[i])
				}
				frames[i] = v.Raw
			}
			if joined := JoinTasks(frames); !bytes.Equal(joined, canon) {
				t.Fatalf("forwarding %q as its views' frames made %q", canon, joined)
			}
		}
		// The in-place readers read what the decoders read, and refuse
		// what they refuse.
		res, err := DecodeResult(data)
		if v, verr := ViewResult(data); (err == nil) != (verr == nil) {
			t.Fatalf("ViewResult(%q) error %v; DecodeResult's %v", data, verr, err)
		} else if err == nil {
			var deltas types.TraceDeltas
			if res.Trace != nil {
				deltas = *res.Trace
			}
			if string(v.TaskID) != string(res.TaskID) || v.Failed != res.Failed() || v.Timing != res.Timing ||
				v.Traced != (res.Trace != nil) || v.Trace != deltas {
				t.Fatalf("ViewResult(%q) = %+v; DecodeResult says %+v", data, v, res)
			}
		}
		start, err := DecodeTaskStart(data)
		if id, ierr := TaskStartID(data); (err == nil) != (ierr == nil) {
			t.Fatalf("TaskStartID(%q) error %v; DecodeTaskStart's %v", data, ierr, err)
		} else if err == nil && string(id) != string(start.TaskID) {
			t.Fatalf("TaskStartID(%q) = %q; DecodeTaskStart says %q", data, id, start.TaskID)
		}
		// The stream reader takes the same bytes as a stream: one whole
		// event frame reads as it decodes, and any input ends in an
		// error after fewer frames than it has bytes.
		r := NewEventReader(bytes.NewReader(data), 1<<16)
		first, err := r.Next()
		if want, wantErr := DecodeEventFrame(data); wantErr == nil && len(want.Result) <= 1<<16 {
			if err != nil || !reflect.DeepEqual(first, want) {
				t.Fatalf("EventReader.Next(%q) = %+v, %v; DecodeEventFrame says %+v", data, first, err, want)
			}
		}
		for n := 0; err == nil; n++ {
			if n > len(data) {
				t.Fatalf("EventReader read more than %d frames from %d bytes", n, len(data))
			}
			_, err = r.Next()
		}
	})
}

// guarded is a copy of b with a run of sentinel bytes on either side,
// inside one allocation: what a write that strays outside b lands on.
func guarded(b []byte) (buf, inner []byte) {
	const guard = 16
	buf = bytes.Repeat([]byte{0xa5}, guard+len(b)+guard)
	inner = buf[guard : guard+len(b) : guard+len(b)]
	copy(inner, b)
	return buf, inner
}

func guardsIntact(buf, inner []byte) bool {
	n := (len(buf) - len(inner)) / 2
	want := bytes.Repeat([]byte{0xa5}, n)
	return bytes.Equal(buf[:n], want) && bytes.Equal(buf[len(buf)-n:], want)
}

// FuzzRestamp holds the two writes that happen inside a received
// buffer to the encoders: for any frame a decoder accepts (made
// canonical first, as every frame a hop holds was written by an
// encoder) and any stamp values, stamping in place gives exactly the
// bytes Encode gives for the stamped record, leaves the body and
// everything outside the frame alone, and is in fact in place whenever
// the layout allows.
func FuzzRestamp(f *testing.F) {
	seeds := frameSeeds()
	for _, name := range []string{"result", "result_lost", "task"} {
		f.Add(seeds[name], int64(1), int64(-2), int64(3_000_000), int64(1)<<62)
		f.Add(seeds[name], int64(0), int64(0), int64(0), int64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, a, b, c, d int64) {
		if r, err := DecodeResult(data); err == nil {
			hadTiming := r.Timing != (types.Timing{})
			buf, frame := guarded(EncodeResult(r))
			if r, err = DecodeResult(frame); err != nil {
				t.Fatalf("DecodeResult rejected EncodeResult's %q: %v", frame, err)
			}
			output := bytes.Clone(r.Output)
			unstamped := *r
			if r.Trace != nil {
				deltas := *r.Trace
				unstamped.Trace = &deltas
			}
			r.Timing = types.Timing{TS: time.Duration(a), TF: time.Duration(b), TE: time.Duration(c), TW: time.Duration(d)}
			if r.Trace != nil {
				*r.Trace = types.TraceDeltas{Exec: time.Duration(d), ManagerQueue: time.Duration(c), AgentQueue: time.Duration(b)}
			}
			out := RestampResult(frame, r)
			if want := EncodeResult(r); !bytes.Equal(out, want) {
				t.Fatalf("RestampResult = %q, want EncodeResult's %q", out, want)
			}
			if !guardsIntact(buf, frame) || !bytes.Equal(r.Output, output) {
				t.Fatalf("RestampResult wrote outside the header of %q", frame)
			}
			if inPlace, can := &out[0] == &frame[0], hadTiming == (r.Timing != (types.Timing{})); inPlace != can {
				t.Fatalf("RestampResult of %q in place: %v, want %v", frame, inPlace, can)
			}
			// The same stamps through the in-place reader: the same bytes.
			buf, frame = guarded(EncodeResult(&unstamped))
			v, err := ViewResult(frame)
			if err != nil {
				t.Fatalf("ViewResult rejected EncodeResult's %q: %v", frame, err)
			}
			v.Timing = r.Timing
			if v.Traced {
				v.Trace = *r.Trace
			}
			if out := v.Restamp(); !bytes.Equal(out, EncodeResult(r)) || !guardsIntact(buf, frame) {
				t.Fatalf("ResultView.Restamp of %q = %q, want EncodeResult's %q", frame, out, EncodeResult(r))
			}
		}
		if sub, err := DecodeTask(data); err == nil {
			// data as a submission read into a body with room in front,
			// stamped the way the service's place does.
			body, inner := guarded(append(make([]byte, HeaderRoom), EncodeTask(sub)...))
			if sub, err = DecodeTask(inner[HeaderRoom:]); err != nil {
				t.Fatalf("DecodeTask rejected EncodeTask's %q: %v", inner[HeaderRoom:], err)
			}
			payload := bytes.Clone(sub.Payload)
			stamped := *sub
			stamped.ID, stamped.Owner = types.TaskID(fmt.Sprint("t-", a)), types.UserID(fmt.Sprint("u-", b))
			stamped.Attempt, stamped.Submitted = 1, time.Unix(0, c).UTC()
			if d&1 == 1 {
				stamped.Trace = &types.TraceContext{Sampled: true, TraceID: fmt.Sprintf("%032x", uint64(d))}
			}
			want := EncodeTask(&stamped)
			out := EncodeTaskInto(inner, &stamped)
			if !bytes.Equal(out, want) {
				t.Fatalf("EncodeTaskInto = %q, want EncodeTask's %q", out, want)
			}
			if !guardsIntact(body, inner) || !bytes.Equal(sub.Payload, payload) {
				t.Fatalf("EncodeTaskInto wrote outside the room in front of the payload of %q", inner)
			}
			// The submission's own header and the room are always enough
			// for these stamps unless the frame was all header to begin with.
			if inPlace := &out[len(out)-1] == &inner[len(inner)-1]; !inPlace && len(want)-len(payload) <= len(inner)-len(payload) {
				t.Fatalf("EncodeTaskInto copied a %d-byte frame that fits the %d-byte body", len(want), len(inner))
			}
		}
	})
}
