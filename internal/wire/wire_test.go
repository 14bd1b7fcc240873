package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"funcx/internal/types"
)

func TestRegistrationRoundTrip(t *testing.T) {
	in := &Registration{
		EndpointID: "ep-1",
		ManagerID:  "mgr-1",
		Workers:    8,
		Containers: []string{"docker:a", "none"},
		Token:      "tok",
	}
	out, err := DecodeRegistration(EncodeRegistration(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.EndpointID != in.EndpointID || out.ManagerID != in.ManagerID ||
		out.Workers != 8 || len(out.Containers) != 2 || out.Token != "tok" {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestCapacityRoundTrip(t *testing.T) {
	in := &types.Capacity{
		ManagerID: "m1",
		Free:      map[string]int{"none": 2, "docker:x": 1},
		Slots:     3,
		Prefetch:  4,
		Total:     8,
	}
	out, err := DecodeCapacity(EncodeCapacity(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ManagerID != "m1" || out.Free["none"] != 2 || out.Slots != 3 || out.Prefetch != 4 || out.Total != 8 {
		t.Fatalf("roundtrip = %+v", out)
	}
	if out.Available("none") != 2+3+4 {
		t.Fatalf("Available = %d", out.Available("none"))
	}
}

func TestStatusRoundTrip(t *testing.T) {
	in := &types.EndpointStatus{
		ID: "ep", Connected: true, OutstandingTasks: 5, QueuedTasks: 2,
		Managers: 3, Workers: 12, IdleWorkers: 7,
	}
	out, err := DecodeStatus(EncodeStatus(in))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeTask([]byte("nope")); err == nil {
		t.Fatal("DecodeTask accepted garbage")
	}
	if _, err := DecodeTasks(EncodeTask(&types.Task{ID: "t"})); err == nil {
		t.Fatal("DecodeTasks accepted a single task frame")
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Fatal("DecodeResult accepted nil")
	}
	if _, err := DecodeRegistration([]byte("[]")); err == nil {
		t.Fatal("DecodeRegistration accepted wrong shape")
	}
	if _, err := DecodeCapacity(EncodeTaskStart(&TaskStart{TaskID: "t"})); err == nil {
		t.Fatal("DecodeCapacity accepted a task start frame")
	}
	if _, err := DecodeTaskStart(EncodeCapacity(&types.Capacity{ManagerID: "m"})); err == nil {
		t.Fatal("DecodeTaskStart accepted a capacity frame")
	}
	if _, err := DecodeStatus([]byte("x")); err == nil {
		t.Fatal("DecodeStatus accepted garbage")
	}
}

// EncodeEvent splices the result into the JSON by hand, base64'd and
// last; what it writes is the JSON encoding/json would read.
func TestEncodeEventIsJSON(t *testing.T) {
	result := EncodeResult(&types.Result{TaskID: "t", Output: bytes.Repeat([]byte{0xfb, 0xff}, 100)})
	for _, in := range []*types.TaskEvent{
		{Seq: 3, TaskID: "t", Status: types.TaskSuccess, Result: result},
		{Seq: 4, TaskID: "t", Status: types.TaskQueued, EndpointID: "ep", DAGID: "d"},
	} {
		encoded := EncodeEvent(in)
		if len(in.Result) > 0 && !strings.HasSuffix(string(encoded), `,"result":"`+base64.StdEncoding.EncodeToString(result)+`"}`) {
			t.Fatalf("EncodeEvent did not write the result last: %s", encoded)
		}
		var want types.TaskEvent
		if err := json.Unmarshal(encoded, &want); err != nil || !reflect.DeepEqual(&want, in) {
			t.Fatalf("encoding/json reads %s as %+v, %v", encoded, want, err)
		}
		if got, err := DecodeEvent(encoded); err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("DecodeEvent(%s) = %+v, %v", encoded, got, err)
		}
	}
}
