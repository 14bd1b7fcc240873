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
