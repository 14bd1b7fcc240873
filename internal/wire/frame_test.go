package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"funcx/internal/types"
)

// fill sets every exported field reachable from v to a distinct
// non-zero value, allocating pointers and maps on the way. A field of
// a kind it does not know fails the test: whoever adds one teaches
// fill, and the round trip below then fails until the codec carries
// the field too.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("value-%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1_000_003)
	case reflect.Uint64:
		v.SetUint(uint64(*n) * 1_000_003)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			t.Fatalf("fill: slice of %s", v.Type().Elem())
		}
		v.SetBytes([]byte{0, byte(*n), '{', '"', 0xff})
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := range 3 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			if i < 2 { // the third key maps to an empty value
				fill(t, e, n)
			}
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			v.Set(reflect.ValueOf(time.Unix(1_700_000_000+int64(*n), int64(*n)).UTC()))
			return
		}
		for i := range v.NumField() {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("fill: unexported field %s.%s", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fill: field of kind %s", v.Kind())
	}
}

func filled[T any](t *testing.T) *T {
	t.Helper()
	var x T
	n := 0
	fill(t, reflect.ValueOf(&x).Elem(), &n)
	return &x
}

// roundTrip requires decode(encode(in)) to equal in, field for field.
func roundTrip[T any](t *testing.T, in *T, encode func(*T) []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	out, err := decode(encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", in, out, in)
	}
}

// Every exported field of the framed records, nested structs included,
// survives a round trip: a field added to any of them without an arm
// in the codec fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	roundTrip(t, filled[types.Task](t), EncodeTask, DecodeTask)
	roundTrip(t, &types.Task{}, EncodeTask, DecodeTask)
	roundTrip(t, &types.Task{Trace: &types.TraceContext{}, BatchN: -3, Walltime: -time.Second}, EncodeTask, DecodeTask)
	roundTrip(t, &types.Task{Submitted: time.Unix(-1, 999_999_999).UTC()}, EncodeTask, DecodeTask)

	roundTrip(t, filled[types.Result](t), EncodeResult, DecodeResult)
	roundTrip(t, &types.Result{}, EncodeResult, DecodeResult)
	roundTrip(t, &types.Result{Trace: &types.TraceDeltas{}, Timing: types.Timing{TW: -1}}, EncodeResult, DecodeResult)

	roundTrip(t, filled[types.Capacity](t), EncodeCapacity, DecodeCapacity)
	roundTrip(t, &types.Capacity{}, EncodeCapacity, DecodeCapacity)
	roundTrip(t, &types.Capacity{Free: map[string]int{"": -1, "none": 0}, Slots: -2}, EncodeCapacity, DecodeCapacity)
	roundTrip(t, filled[TaskStart](t), EncodeTaskStart, DecodeTaskStart)
	roundTrip(t, &TaskStart{}, EncodeTaskStart, DecodeTaskStart)

	roundTrip(t, filled[types.TaskEvent](t), encodeEventFrame, DecodeEventFrame)
	roundTrip(t, &types.TaskEvent{}, encodeEventFrame, DecodeEventFrame)
	roundTrip(t, &types.TaskEvent{Seq: 1<<64 - 1, Time: time.Unix(-1, 999_999_999).UTC()}, encodeEventFrame, DecodeEventFrame)

	in := []*types.Task{filled[types.Task](t), {}, {ID: "c", Payload: []byte("x")}}
	out, err := DecodeTasks(EncodeTasks(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("batch round trip:\n got %+v\nwant %+v", out, in)
	}
	if out, err := DecodeTasks(EncodeTasks(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	// A batch joined out of frames is the batch encoded out of tasks.
	frames := make([][]byte, len(in))
	for i, task := range in {
		frames[i] = EncodeTask(task)
	}
	if joined := JoinTasks(frames); !bytes.Equal(joined, EncodeTasks(in)) || !IsTaskBatch(joined) || IsTaskBatch(frames[0]) || IsTaskBatch(nil) {
		t.Fatalf("JoinTasks = %q, want EncodeTasks' %q, and IsTaskBatch true of it alone", joined, EncodeTasks(in))
	}
	if !bytes.Equal(JoinTasks(nil), EncodeTasks(nil)) {
		t.Fatal("an empty joined batch is not an empty encoded batch")
	}
}

// encodeEventFrame is an event frame in one buffer: what a stream
// handler sends in two writes.
func encodeEventFrame(e *types.TaskEvent) []byte {
	return append(AppendEventHead(nil, e), e.Result...)
}

// within reports whether p's bytes lie inside buf's backing array.
func within(p, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &p[0] {
			return len(p) <= len(buf)-i
		}
	}
	return false
}

// Decoders hand the body out as a slice of their input.
func TestDecodeAliasesInput(t *testing.T) {
	body := bytes.Repeat([]byte("payload "), 1024)
	enc := EncodeTask(&types.Task{ID: "t", Payload: body})
	task, err := DecodeTask(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(task.Payload, body) || !within(task.Payload, enc) {
		t.Fatal("DecodeTask copied the payload")
	}
	enc = EncodeTasks([]*types.Task{{ID: "a", Payload: body}, {ID: "b", Payload: body}})
	tasks, err := DecodeTasks(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if !bytes.Equal(task.Payload, body) || !within(task.Payload, enc) {
			t.Fatalf("DecodeTasks copied the payload of %s", task.ID)
		}
	}
	enc = EncodeResult(&types.Result{TaskID: "t", Output: body})
	res, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, body) || !within(res.Output, enc) {
		t.Fatal("DecodeResult copied the output")
	}
	// An event's body is a result frame, which opens in place too.
	enc = encodeEventFrame(&types.TaskEvent{TaskID: "t", Status: types.TaskSuccess, Result: enc})
	ev, err := DecodeEventFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = DecodeResult(ev.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, body) || !within(ev.Result, enc) || !within(res.Output, enc) {
		t.Fatal("DecodeEventFrame copied the result")
	}
}

// A view is the decoded header beside the very bytes it was opened
// from, one task or a batch of them; the one way to change a field is a
// new view over a new encoding.
func TestViewKeepsItsInput(t *testing.T) {
	task := filled[types.Task](t)
	enc := EncodeTask(task)
	v, err := ViewTask(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Head, task) || &v.Raw[0] != &enc[0] || len(v.Raw) != len(enc) || !within(v.Head.Payload, enc) {
		t.Fatalf("ViewTask = %+v over %p, want %+v over the input %p", v.Head, v.Raw, task, enc)
	}
	if _, err := ViewTask(enc[:len(enc)-1]); err == nil {
		t.Fatal("ViewTask accepted a truncated frame")
	}

	frames := [][]byte{enc, EncodeTask(&types.Task{}), EncodeTask(&types.Task{ID: "c", Payload: []byte("x")})}
	batch := JoinTasks(frames)
	vs, err := ViewTasks(batch)
	if err != nil || len(vs) != len(frames) {
		t.Fatalf("ViewTasks = %d views, %v", len(vs), err)
	}
	heads, _ := DecodeTasks(batch)
	for i, v := range vs {
		if !bytes.Equal(v.Raw, frames[i]) || !within(v.Raw, batch) || cap(v.Raw) != len(v.Raw) || !reflect.DeepEqual(v.Head, heads[i]) {
			t.Fatalf("view %d = %+v over %q, want %+v over its frame inside the batch", i, v.Head, v.Raw, heads[i])
		}
	}
	// Forwarding a batch is joining what was received.
	if !bytes.Equal(JoinTasks([][]byte{vs[0].Raw, vs[1].Raw, vs[2].Raw}), batch) {
		t.Fatal("the views' frames do not join back into their batch")
	}

	before := bytes.Clone(enc)
	next := v.WithAttempt(task.Attempt + 1)
	want := *task
	want.Attempt++
	if !reflect.DeepEqual(next.Head, &want) || !bytes.Equal(next.Raw, EncodeTask(&want)) || !within(next.Head.Payload, next.Raw) {
		t.Fatalf("WithAttempt = %+v over %q", next.Head, next.Raw)
	}
	if v.Head.Attempt != task.Attempt || !bytes.Equal(enc, before) {
		t.Fatal("WithAttempt changed the view it was made from")
	}
}

// The service stamps a submission that arrived as one frame inside the
// body it arrived in: the header is rewritten in the room in front of
// the payload and not one payload byte is read or written. Anything
// else is a fresh frame of the same bytes.
func TestEncodeTaskIntoStampsInPlace(t *testing.T) {
	payload := bytes.Repeat([]byte("payload "), 1024)
	submitted := EncodeTask(&types.Task{FunctionID: "fn-1", EndpointID: "ep-1", Payload: payload, Memoize: true})
	body := append(make([]byte, HeaderRoom, HeaderRoom+len(submitted)), submitted...)
	sub, err := DecodeTask(body[HeaderRoom:])
	if err != nil {
		t.Fatal(err)
	}
	stamped := filled[types.Task](t)
	stamped.Payload = sub.Payload
	want := EncodeTask(stamped)

	at := len(body) - len(payload)
	got := EncodeTaskInto(body, stamped)
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeTaskInto = %q, want EncodeTask's %q", got[:len(got)-len(payload)], want[:len(want)-len(payload)])
	}
	if &got[len(got)-1] != &body[len(body)-1] || &got[len(got)-len(payload)] != &body[at] {
		t.Fatal("EncodeTaskInto did not write the frame into the body")
	}
	if !bytes.Equal(body[at:], payload) || !bytes.Equal(body[:len(body)-len(got)], make([]byte, len(body)-len(got))) {
		t.Fatal("EncodeTaskInto wrote outside the header")
	}
	if n := testing.AllocsPerRun(100, func() { EncodeTaskInto(body, stamped) }); n != 0 {
		t.Fatalf("EncodeTaskInto in place: %v allocations, want 0", n)
	}
	// No payload at all: the frame is the last bytes of the body, which
	// held the submission's header and empty body length.
	empty := *stamped
	empty.Payload = nil
	noPayload := append(make([]byte, HeaderRoom), EncodeTask(&types.Task{FunctionID: "fn-1"})...)
	if got := EncodeTaskInto(noPayload, &empty); !bytes.Equal(got, EncodeTask(&empty)) || &got[len(got)-1] != &noPayload[len(noPayload)-1] {
		t.Fatalf("EncodeTaskInto with no payload = %q", got)
	}

	for name, buf := range map[string][]byte{
		"no body":              nil,
		"a payload of its own": make([]byte, len(body)),
		"no room":              body[at-8:],
		"not the tail":         body[:len(body)-1],
	} {
		before := bytes.Clone(buf)
		got := EncodeTaskInto(buf, stamped)
		if !bytes.Equal(got, want) || within(got[:1], body) || !bytes.Equal(buf, before) {
			t.Fatalf("%s: EncodeTaskInto wrote %d bytes (want %d), inside the body: %v; want a frame of its own",
				name, len(got), len(want), within(got[:1], body))
		}
	}
}

// A hop stamps a result by overwriting the fixed-width stamps of the
// frame it holds; only a stamp section that must appear or go costs an
// encode.
func TestRestampResultPatchesInPlace(t *testing.T) {
	output := bytes.Repeat([]byte("output "), 1024)
	res := &types.Result{
		TaskID: "t-1", Output: output, Completed: time.Unix(1_700_000_000, 1).UTC(), WorkerID: "w-1",
		Timing: types.Timing{TW: time.Millisecond}, Trace: &types.TraceDeltas{Exec: time.Millisecond},
	}
	frame := EncodeResult(res)
	got, err := DecodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	got.Timing.TE, got.Timing.TF, got.Timing.TS = 3, -1, 1<<62
	got.Trace.AgentQueue, got.Trace.ManagerQueue = 5, 7
	out := RestampResult(frame, got)
	if &out[0] != &frame[0] || len(out) != len(frame) {
		t.Fatal("RestampResult re-encoded a frame that has both stamp sections")
	}
	if want := EncodeResult(got); !bytes.Equal(out, want) {
		t.Fatalf("patched frame = %q, want %q", out[:len(out)-len(output)], want[:len(want)-len(output)])
	}
	if back, err := DecodeResult(out); err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("patched frame decodes to %+v, %v; want %+v", back, err, got)
	}
	if n := testing.AllocsPerRun(100, func() { RestampResult(frame, got) }); n != 0 {
		t.Fatalf("RestampResult in place: %v allocations, want 0", n)
	}

	// A synthesized result has no timing to overwrite; one whose stamps
	// go back to zero loses the section; a trace context cannot appear.
	lost := &types.Result{TaskID: "t-2", Err: "lease expired", Lost: true}
	for name, c := range map[string]struct {
		from  *types.Result
		stamp func(*types.Result)
	}{
		"timing appears": {lost, func(r *types.Result) { r.Timing.TS = 1 }},
		"timing goes":    {res, func(r *types.Result) { r.Timing = types.Timing{} }},
		"trace appears":  {lost, func(r *types.Result) { r.Trace = &types.TraceDeltas{} }},
		"trace goes":     {res, func(r *types.Result) { r.Trace = nil }},
	} {
		frame := EncodeResult(c.from)
		before := bytes.Clone(frame)
		r, _ := DecodeResult(frame)
		c.stamp(r)
		out := RestampResult(frame, r)
		if !bytes.Equal(out, EncodeResult(r)) || &out[0] == &frame[0] || !bytes.Equal(frame, before) {
			t.Fatalf("%s: RestampResult wrote %d bytes (in place: %v), want a new frame of %d", name, len(out), &out[0] == &frame[0], len(EncodeResult(r)))
		}
	}
}

// decoders drives the frame decoders alike.
var decoders = []struct {
	name   string
	frame  func(*testing.T) []byte
	decode func([]byte) error
}{
	{"task", func(t *testing.T) []byte { return EncodeTask(filled[types.Task](t)) },
		func(b []byte) error { _, err := DecodeTask(b); return err }},
	{"tasks", func(t *testing.T) []byte { return EncodeTasks([]*types.Task{filled[types.Task](t), {ID: "b"}}) },
		func(b []byte) error { _, err := DecodeTasks(b); return err }},
	{"result", func(t *testing.T) []byte { return EncodeResult(filled[types.Result](t)) },
		func(b []byte) error { _, err := DecodeResult(b); return err }},
	{"capacity", func(t *testing.T) []byte { return EncodeCapacity(filled[types.Capacity](t)) },
		func(b []byte) error { _, err := DecodeCapacity(b); return err }},
	{"taskstart", func(t *testing.T) []byte { return EncodeTaskStart(filled[TaskStart](t)) },
		func(b []byte) error { _, err := DecodeTaskStart(b); return err }},
	{"event", func(t *testing.T) []byte { return encodeEventFrame(filled[types.TaskEvent](t)) },
		func(b []byte) error { _, err := DecodeEventFrame(b); return err }},
}

// A frame that has no body refuses one, and every decoder refuses a
// tag it does not know.
func TestBodyAndUnknownTagsFail(t *testing.T) {
	for _, format := range []byte{formatCapacity, formatTaskStart} {
		withBody := appendFrame(nil, format, nil, []byte("x"))
		_, errCapacity := DecodeCapacity(withBody)
		_, errStart := DecodeTaskStart(withBody)
		if errCapacity == nil || errStart == nil {
			t.Fatalf("format %#x: accepted a body (capacity %v, task start %v)", format, errCapacity, errStart)
		}
	}
	for _, d := range decoders {
		if d.name == "tasks" {
			continue // a batch has no header of its own
		}
		enc := d.frame(t)
		unknown := appendFrame(nil, enc[0], []byte{0x7f, 0}, nil)
		if err := d.decode(unknown); err == nil {
			t.Fatalf("%s: accepted unknown field 0x7f", d.name)
		}
	}
}

// Every proper prefix of a frame, and a frame with a byte after it,
// is an error and never a panic.
func TestTruncatedAndPaddedFramesFail(t *testing.T) {
	for _, d := range decoders {
		enc := d.frame(t)
		for i := range enc {
			if err := d.decode(enc[:i]); err == nil {
				t.Fatalf("%s: accepted the %d-byte prefix of a %d-byte frame", d.name, i, len(enc))
			}
		}
		if err := d.decode(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Fatalf("%s: accepted a frame with a trailing byte", d.name)
		}
	}
}

// A length prefix claiming more than the input holds is an error, and
// the claimed length is never allocated.
func TestOverlongLengthsFailWithoutAllocating(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xf0}
	uvarintHuge := binary.AppendUvarint(nil, 1<<40)
	task := EncodeTask(&types.Task{ID: "t", Payload: []byte("p")})
	headerLen := int(binary.BigEndian.Uint32(task[1:]))
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"header length": join([]byte{formatTask}, huge, task[5:]),
		"body length":   join(task[:5+headerLen], huge, []byte("p")),
		"field length":  join([]byte{formatTask, 0, 0, 0, byte(1 + len(uvarintHuge)), byte(tagTaskID)}, uvarintHuge, []byte{0, 0, 0, 0}),
		"batch count":   join([]byte{formatTasks}, uvarintHuge, task),
		"batch entry":   join([]byte{formatTasks, 1}, huge, task),
	}
	for name, frame := range cases {
		asResult, asEvent := join([]byte{formatResult}, frame[1:]), join([]byte{formatEvent}, frame[1:])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, errTask := DecodeTask(frame)
		_, errTasks := DecodeTasks(frame)
		_, errResult := DecodeResult(asResult)
		_, errEvent := DecodeEventFrame(asEvent)
		_, errStream := NewEventReader(bytes.NewReader(asEvent), 8<<20).Next()
		runtime.ReadMemStats(&after)
		if errTask == nil || errTasks == nil || errResult == nil || errEvent == nil || errStream == nil {
			t.Fatalf("%s: accepted (task %v, tasks %v, result %v, event %v, stream %v)", name, errTask, errTasks, errResult, errEvent, errStream)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: decoding allocated %d bytes", name, grew)
		}
	}
}

// Values written by the JSON codec these frames replaced are refused
// by name, whichever decoder meets them.
func TestLegacyJSONIsNamed(t *testing.T) {
	for _, legacy := range []string{
		`{"task_id":"t1","function_id":"f","endpoint_id":"e","payload":"AAEC"}`,
		`[{"task_id":"a","payload":null}]`,
		`{"task_id":"t1","output":"Im9rIg=="}`,
		`{"manager_id":"m1","free":{"none":2},"total":4}`,
		`{"task_id":"t1","worker_id":"w1"}`,
	} {
		for _, d := range decoders {
			if err := d.decode([]byte(legacy)); !errors.Is(err, ErrLegacyJSON) {
				t.Fatalf("%s(%s) = %v, want ErrLegacyJSON", d.name, legacy, err)
			}
		}
	}
}

// A result frame in the layout of builds whose stamps were varints is
// refused by name.
func TestLegacyResultIsNamed(t *testing.T) {
	old := appendFrame(nil, formatResultVarint, appendInts(appendString(nil, byte(tagResultTaskID), "t-1"), byte(tagResultTiming), 1, 2, 3, 4), []byte("out"))
	if _, err := DecodeResult(old); !errors.Is(err, ErrLegacyResult) {
		t.Fatalf("DecodeResult(varint-stamp frame) = %v, want ErrLegacyResult", err)
	}
	if RestampResult(old, &types.Result{TaskID: "t-1"})[0] != formatResult {
		t.Fatal("RestampResult patched a frame it cannot open")
	}
	// Only a result decoder reads 0x03 that way.
	if _, err := DecodeTask(old); err == nil || errors.Is(err, ErrLegacyResult) {
		t.Fatalf("DecodeTask(varint-stamp result) = %v", err)
	}
}

// A hop that re-stamps a record re-encodes it into one allocation,
// however large the body.
func TestEncodeAllocatesOnce(t *testing.T) {
	task := filled[types.Task](t)
	task.Selector = nil // sorting selector keys allocates; few tasks carry one
	task.Payload = make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() { EncodeTask(task) }); n != 1 {
		t.Fatalf("EncodeTask: %v allocations, want 1", n)
	}
	res := filled[types.Result](t)
	res.Output = make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() { EncodeResult(res) }); n != 1 {
		t.Fatalf("EncodeResult: %v allocations, want 1", n)
	}
	// The two header-only frames are sent once or more per task.
	capacity := &types.Capacity{ManagerID: "m-1", Free: map[string]int{"none": 3, "docker:img": 1}, Slots: 2, Total: 8}
	if n := testing.AllocsPerRun(100, func() { EncodeCapacity(capacity) }); n != 1 {
		t.Fatalf("EncodeCapacity: %v allocations, want 1", n)
	}
	start := filled[TaskStart](t)
	if n := testing.AllocsPerRun(100, func() { EncodeTaskStart(start) }); n != 1 {
		t.Fatalf("EncodeTaskStart: %v allocations, want 1", n)
	}
	// An event's head goes into the stream's own buffer, and its result
	// is not touched.
	ev, head := filled[types.TaskEvent](t), make([]byte, 0, 256)
	ev.Result = make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() { head = AppendEventHead(head[:0], ev) }); n != 0 {
		t.Fatalf("AppendEventHead: %v allocations, want 0", n)
	}
}

// A framed stream is frames back to back: the reader passes over
// heartbeats, returns each event with its result, drops a result above
// its bound without reading it into memory, and reports the gap signal
// and the end of the stream as what they are.
func TestEventReader(t *testing.T) {
	for name, signal := range map[string][2]string{
		"heartbeat": {EventHeartbeat, string(frame(formatHeartbeat, nil, nil))},
		"gap":       {EventGap, string(frame(formatGap, nil, nil))},
	} {
		if signal[0] != signal[1] {
			t.Fatalf("%s signal = %q, want %q", name, signal[0], signal[1])
		}
	}
	const maxBody = 1 << 10
	small := &types.TaskEvent{Seq: 1, TaskID: "a", Status: types.TaskSuccess, Result: EncodeResult(&types.Result{TaskID: "a", Output: []byte("out")})}
	queued := &types.TaskEvent{Seq: 2, TaskID: "b", Status: types.TaskQueued, Time: time.Unix(1_700_000_000, 5).UTC()}
	big := &types.TaskEvent{Seq: 3, TaskID: "c", Status: types.TaskSuccess, Result: make([]byte, maxBody+1)}
	var stream []byte
	stream = append(stream, EventHeartbeat...)
	stream = append(stream, encodeEventFrame(small)...)
	stream = append(stream, EventHeartbeat...)
	stream = append(stream, EventHeartbeat...)
	stream = append(stream, encodeEventFrame(queued)...)
	stream = append(stream, encodeEventFrame(big)...)
	stream = append(stream, encodeEventFrame(small)...)
	events := len(stream)
	stream = append(stream, EventGap...)

	r := NewEventReader(bytes.NewReader(stream), maxBody)
	trimmed := *big
	trimmed.Result = nil
	for i, want := range []*types.TaskEvent{small, queued, &trimmed, small} {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got, want)
		}
		if n := len(got.Result); cap(got.Result) != n {
			t.Fatalf("event %d: result of %d bytes in a buffer with %d to spare", i, n, cap(got.Result)-n)
		}
	}
	if _, err := r.Next(); !errors.Is(err, ErrEventGap) {
		t.Fatalf("after the events: %v, want ErrEventGap", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the gap: %v, want io.EOF", err)
	}

	// A stream cut anywhere ends in io.EOF between frames and in an
	// error inside one, never in a panic or an invented event.
	ends := map[int]bool{}
	for at, rest := 0, stream[:events]; len(rest) > 0; {
		ends[at] = true
		n := frameOverhead + int(binary.BigEndian.Uint32(rest[1:]))
		n += int(binary.BigEndian.Uint32(rest[n-4:]))
		at, rest = at+n, rest[n:]
	}
	for cut := range events {
		r := NewEventReader(bytes.NewReader(stream[:cut]), maxBody)
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if ends[cut] != (err == io.EOF) || errors.Is(err, ErrEventGap) {
			t.Fatalf("stream cut at %d (a frame boundary: %v) ended with %v", cut, ends[cut], err)
		}
	}

	// What is not a frame of the stream is refused: a header longer than
	// any event's, a signal that carries something, another record.
	for name, bad := range map[string][]byte{
		"long header":    appendFrame(nil, formatEvent, make([]byte, maxEventHeader+1), nil),
		"heartbeat body": appendFrame(nil, formatHeartbeat, nil, []byte("x")),
		"gap header":     appendFrame(nil, formatGap, []byte{byte(tagEventSeq), 1, 2}, nil),
		"result frame":   small.Result,
		"server-sent":    []byte("id: 1\ndata: {}\n\n"),
	} {
		if ev, err := NewEventReader(bytes.NewReader(bad), maxBody).Next(); err == nil || err == io.EOF || errors.Is(err, ErrEventGap) {
			t.Fatalf("%s: Next = %+v, %v", name, ev, err)
		}
	}
}
