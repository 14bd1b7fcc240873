// Package wire defines the codecs for the records exchanged between the
// funcX service, forwarders, endpoint agents, and managers, and kept
// in the store and its WAL.
//
// The per-task records — a task, a batch of tasks, a result, and the
// two signals a manager sends once or more per task, its capacity
// advertisement and the execution-start signal — are binary frames
// (frame.go). Payload and Output are opaque serialized buffers (see
// internal/serial) that ride raw behind a small header, so a hop
// routes, leases and re-stamps a record without scanning its body
// (paper §4.6), and a decoder hands the body out as a slice of its
// input instead of copying it:
//
//	task, result, capacity, task start:
//	  byte    format        0x01 task, 0x03 result, 0x04 capacity,
//	                        0x05 task start
//	  uint32  header length
//	  header  fields, each: byte tag | uvarint length | value
//	  uint32  body length   everything left; 0 for capacity and task
//	                        start, which are all header
//	  body    Payload / Output, raw
//	batch:
//	  byte    format        0x02
//	  uvarint count
//	  count × uint32 length | task frame
//
// Integers are big-endian; a field at its zero value is omitted and a
// map field is one entry per key, sorted. A value whose first byte is
// '{' or '[' was written by the JSON codec these frames replaced and
// fails to decode with ErrLegacyJSON.
//
// Everything else here is off the per-task path and stays JSON:
// registrations, advice, status, DAG records, and the task event that
// GET /v1/events streams (whose Result field carries a result frame).
package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"funcx/internal/dag"
	"funcx/internal/types"
)

// Registration is the payload of a MsgRegister from an endpoint agent
// to its forwarder, or from a manager to its agent.
type Registration struct {
	// EndpointID identifies the registering endpoint (agent → forwarder).
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	// ManagerID identifies the registering manager (manager → agent).
	ManagerID types.ManagerID `json:"manager_id,omitempty"`
	// Workers is the worker count behind the registrant.
	Workers int `json:"workers,omitempty"`
	// Containers lists the container keys deployed at registration.
	Containers []string `json:"containers,omitempty"`
	// Token authenticates the registrant (endpoint native client).
	Token string `json:"token,omitempty"`
}

// EncodeRegistration frames a registration.
func EncodeRegistration(r *Registration) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling registration: %v", err))
	}
	return b
}

// DecodeRegistration unframes a registration.
func DecodeRegistration(data []byte) (*Registration, error) {
	var r Registration
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wire: decoding registration: %w", err)
	}
	return &r, nil
}

// EncodeAdvice frames a scaling-advice push (service → endpoint,
// piggybacked on forwarder heartbeats).
func EncodeAdvice(a *types.ScalingAdvice) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling advice: %v", err))
	}
	return b
}

// DecodeAdvice unframes a scaling-advice push.
func DecodeAdvice(data []byte) (*types.ScalingAdvice, error) {
	var a types.ScalingAdvice
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("wire: decoding advice: %w", err)
	}
	return &a, nil
}

// TaskStart is the payload of a MsgRunning frame: the execution-start
// signal a worker raises the moment it picks a task up, relayed
// manager → agent → forwarder toward the service.
type TaskStart struct {
	TaskID    types.TaskID
	WorkerID  types.WorkerID
	ManagerID types.ManagerID
}

// resultKey introduces the last member of an encoded event that
// carries a result.
const resultKey = `,"result":"`

// EncodeEvent frames a task lifecycle event (the SSE data payload of
// GET /v1/events) as one JSON object with no raw newline, so the
// frame always fits one SSE data line. The result frame, the only
// member that can be large, is written last and base64'd straight
// into the output.
func EncodeEvent(e *types.TaskEvent) []byte {
	head := e
	if len(e.Result) > 0 {
		c := *e
		c.Result = nil
		head = &c
	}
	b, err := json.Marshal(head)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling event: %v", err))
	}
	if len(e.Result) == 0 {
		return b
	}
	out := make([]byte, 0, len(b)+len(resultKey)+base64.StdEncoding.EncodedLen(len(e.Result))+1)
	out = append(out, b[:len(b)-1]...) // TaskID and Status are never omitted, so a member precedes the comma
	out = append(out, resultKey...)
	out = base64.StdEncoding.AppendEncode(out, e.Result)
	return append(out, '"', '}')
}

// DecodeEvent unframes a task lifecycle event. Any JSON encoding of
// the event is accepted; the one EncodeEvent writes is decoded without
// a JSON scan of the result.
func DecodeEvent(data []byte) (*types.TaskEvent, error) {
	var e types.TaskEvent
	if head, result, ok := cutResult(data); ok && json.Unmarshal(head, &e) == nil {
		e.Result = result
		return &e, nil
	}
	e = types.TaskEvent{}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("wire: decoding event: %w", err)
	}
	return &e, nil
}

// cutResult splits an event that ends `,"result":"<base64>"}` into
// the object without that member and the decoded result. The text
// from the first resultKey on is plain base64 up to the closing `"}`
// (a quote or an escape is not base64), and the text before it closes
// into a complete object, which the caller's Unmarshal checks: so the
// key sits between members of the outermost object and the whole is
// the JSON it appears to be. ok is false for any other shape.
func cutResult(data []byte) (head, result []byte, ok bool) {
	body, ok := bytes.CutSuffix(data, []byte(`"}`))
	at := bytes.Index(body, []byte(resultKey))
	if !ok || at < 0 {
		return nil, nil, false
	}
	// The comma needs a member before it, and base64.Decode skips
	// line breaks that a JSON string may not hold.
	front, b64 := bytes.TrimRight(body[:at], " \t\r\n"), body[at+len(resultKey):]
	if bytes.HasSuffix(front, []byte("{")) || bytes.IndexByte(b64, '\n') >= 0 || bytes.IndexByte(b64, '\r') >= 0 {
		return nil, nil, false
	}
	result, err := base64.StdEncoding.AppendDecode(nil, b64)
	if err != nil || len(result) == 0 {
		return nil, nil, false
	}
	head = append(make([]byte, 0, len(front)+1), front...)
	return append(head, '}'), result, true
}

// EncodeDAG frames a dependency-graph record for the store (the
// journaled graph state the service recovers pending edges from).
func EncodeDAG(g *dag.Graph) []byte {
	b, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling dag: %v", err))
	}
	return b
}

// DecodeDAG unframes a dependency-graph record.
func DecodeDAG(data []byte) (*dag.Graph, error) {
	var g dag.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("wire: decoding dag: %w", err)
	}
	return &g, nil
}

// EncodeStatus frames an endpoint status report.
func EncodeStatus(s *types.EndpointStatus) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling status: %v", err))
	}
	return b
}

// DecodeStatus unframes an endpoint status report.
func DecodeStatus(data []byte) (*types.EndpointStatus, error) {
	var s types.EndpointStatus
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wire: decoding status: %w", err)
	}
	return &s, nil
}
