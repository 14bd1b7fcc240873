package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcx/internal/types"
	"funcx/internal/wire"
)

func TestTimingConversionRoundTrip(t *testing.T) {
	in := types.Timing{TS: time.Millisecond, TF: 2 * time.Millisecond, TE: 3 * time.Millisecond, TW: 4 * time.Millisecond}
	out := FromTiming(in).Timing()
	if out != in {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
}

func TestPayloadBase64RoundTrip(t *testing.T) {
	// encoding/json carries []byte as base64; binary payloads must
	// survive the REST layer intact.
	in := SubmitRequest{FunctionID: "f", EndpointID: "e", Payload: []byte{0, 1, 2, 0xff, '\n'}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SubmitRequest
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if string(out.Payload) != string(in.Payload) {
		t.Fatalf("payload = %v", out.Payload)
	}
}

func TestErrorResponseShape(t *testing.T) {
	b, err := json.Marshal(ErrorResponse{Error: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"error":"nope"}` {
		t.Fatalf("error body = %s", b)
	}
}

func TestResultResponseOmitsEmpty(t *testing.T) {
	b, err := json.Marshal(ResultResponse{TaskID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, forbidden := range []string{"output", "error", "memoized"} {
		if containsField(s, forbidden) {
			t.Fatalf("empty field %q serialized: %s", forbidden, s)
		}
	}
}

func containsField(s, field string) bool {
	return len(s) > 0 && (json.Valid([]byte(s)) && stringContains(s, `"`+field+`"`))
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// A submission frame carries every field of a SubmitRequest but
// DependsOn, byte for byte, and refuses each field a task has beyond
// those: whoever adds a field to types.Task decides here which side of
// that line it is on.
func TestSubmitFrameRoundTrip(t *testing.T) {
	in := SubmitRequest{
		FunctionID: "f", EndpointID: "e", GroupID: "g", Labels: map[string]string{"site": "anl", "gpu": ""},
		Payload: []byte{0, 1, '{', 0xff, '\n'}, Memoize: true, BatchN: 3,
		Walltime: time.Minute, MaxRetries: 2, AtMostOnce: true,
	}
	if n := reflect.TypeFor[SubmitRequest]().NumField(); n != 11 {
		t.Fatalf("SubmitRequest has %d fields: teach EncodeSubmitFrame and this test the new one", n)
	}
	out, err := DecodeSubmitFrame(EncodeSubmitFrame(&in))
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, %v\nwant %+v", out, err, in)
	}
	if out, err = DecodeSubmitFrame(EncodeSubmitFrame(&SubmitRequest{})); err != nil || !reflect.DeepEqual(out, SubmitRequest{}) {
		t.Fatalf("empty round trip = %+v, %v", out, err)
	}

	submission := map[string]bool{
		"FunctionID": true, "EndpointID": true, "GroupID": true, "Selector": true, "Payload": true,
		"Memoize": true, "BatchN": true, "Walltime": true, "MaxRetries": true, "AtMostOnce": true,
	}
	task := reflect.TypeFor[types.Task]()
	for i := range task.NumField() {
		if submission[task.Field(i).Name] {
			continue
		}
		var owned types.Task
		f := reflect.ValueOf(&owned).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int:
			f.SetInt(1)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Struct:
			if f.Type() == reflect.TypeFor[time.Time]() {
				f.Set(reflect.ValueOf(time.Unix(1, 0)))
			} else {
				f.Field(0).SetString("x")
			}
		default:
			t.Fatalf("types.Task.%s: field of kind %s", task.Field(i).Name, f.Kind())
		}
		if _, err := DecodeSubmitFrame(wire.EncodeTask(&owned)); !errors.Is(err, ErrServerField) {
			t.Errorf("frame setting %s: %v, want ErrServerField", task.Field(i).Name, err)
		}
	}
	if _, err := DecodeSubmitFrame([]byte(`{"function_id":"f"}`)); !errors.Is(err, wire.ErrLegacyJSON) {
		t.Errorf("JSON under the frame type: %v, want ErrLegacyJSON", err)
	}
}

// A batch frame is the submission frames of its entries behind their
// lengths, the bytes wire.EncodeTasks writes, so each entry reads back
// as it would alone, in order; an entry with a field of the service's is
// refused by its index.
func TestSubmitBatchRoundTrip(t *testing.T) {
	in := []*SubmitRequest{
		{FunctionID: "f", EndpointID: "e", Payload: []byte{0, '{', 0xff}, Memoize: true, Walltime: time.Minute},
		{FunctionID: "g", EndpointID: "e", Labels: map[string]string{"site": "anl"}, BatchN: 3, MaxRetries: 2, AtMostOnce: true},
		{},
	}
	frames := make([][]byte, len(in))
	for i, r := range in {
		frames[i] = EncodeSubmitFrame(r)
	}
	frame := wire.JoinTasks(frames)
	out, err := DecodeSubmitBatch(frame)
	if err != nil || len(out) != len(in) {
		t.Fatalf("round trip = %d submissions, %v", len(out), err)
	}
	rest := frame[2:] // format, count
	for i := range in {
		if !reflect.DeepEqual(out[i], *in[i]) {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], *in[i])
		}
		if n := int(binary.BigEndian.Uint32(rest)); n != len(frames[i]) || !bytes.Equal(rest[4:4+n], frames[i]) {
			t.Errorf("entry %d is not the frame it would be alone", i)
		}
		rest = rest[4+len(frames[i]):]
	}
	if tasks, err := wire.DecodeTasks(frame); err != nil || !bytes.Equal(wire.EncodeTasks(tasks), frame) {
		t.Errorf("the batch frame is not what wire.EncodeTasks writes of its tasks (%v)", err)
	}
	owned := wire.EncodeTasks([]*types.Task{{FunctionID: "f"}, {FunctionID: "f", Owner: "root"}})
	if _, err := DecodeSubmitBatch(owned); !errors.Is(err, ErrServerField) || !strings.Contains(err.Error(), "entry 1") {
		t.Errorf("batch whose entry 1 names its owner: %v, want ErrServerField naming it", err)
	}
	if _, err := DecodeSubmitBatch(EncodeSubmitFrame(in[0])); err == nil {
		t.Error("a submission frame decoded as a batch")
	}
}

func TestIsFrameType(t *testing.T) {
	for header, want := range map[string]bool{
		FrameMediaType:                               true,
		" " + FrameMediaType + " ; q=1":              true,
		"text/event-stream;q=0.5, " + FrameMediaType: true,
		"":                   false,
		"application/json":   false,
		"text/event-stream":  false,
		FrameMediaType + "x": false,
		"*/*":                false,
	} {
		if got := IsFrameType(header); got != want {
			t.Errorf("IsFrameType(%q) = %v, want %v", header, got, want)
		}
	}
}
