// Package wire defines the codecs for the records exchanged between the
// funcX service, forwarders, endpoint agents, and managers, and kept
// in the store and its WAL.
//
// The per-task records — a task, a batch of tasks, a result, the two
// signals a manager sends once or more per task (its capacity
// advertisement and the execution-start signal) and the task event of
// a framed GET /v1/events stream — are binary frames (frame.go). Payload and Output are opaque serialized buffers (see
// internal/serial) that ride raw behind a small header, so a hop
// routes, leases and re-stamps a record without scanning its body or
// copying it (paper §4.6), and a decoder hands the body out as a slice
// of its input:
//
//	task, result, capacity, task start, event, heartbeat, gap:
//	  byte    format        0x01 task, 0x09 result, 0x04 capacity,
//	                        0x05 task start, 0x06 event, 0x07 heartbeat,
//	                        0x08 gap (0x03, the result of builds whose
//	                        stamps were varints, is ErrLegacyResult)
//	  uint32  header length 0 for heartbeat and gap, which are nine
//	                        bytes and say everything by their format
//	  header  fields, each: byte tag | uvarint length | value
//	  uint32  body length   everything left; 0 for capacity and task
//	                        start, which are all header
//	  body    Payload / Output, raw; for an event, the task's result
//	          frame exactly as the store holds it (nothing for an
//	          event that is not terminal, or that is replayed)
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
// The two result fields that hops after the manager write — the agent,
// the forwarder and the service each add their share of Timing, the
// agent its queue's trace delta — are the stamp section, of a width
// that does not depend on the values:
//
//	tag 4  Timing       length 32: int64 TS | TF | TE | TW
//	tag 7  TraceDeltas  length 24: int64 Exec | ManagerQueue | AgentQueue
//
// so a hop that holds the only reference to a result frame stamps it by
// overwriting those bytes (RestampResult) and sends the frame it
// received. A hop that reads nothing of a result but its task id and
// stamps (the agent) reads them in place (ViewResult) and decodes
// nothing; the forwarder reads a running signal's task id the same way
// (TaskStartID). A task frame is never rewritten once queued — the store and
// every hop share its bytes — and a hop keeps it beside its decoded
// header as a TaskView to send it on as it came; the one field a hop
// changes, the agent's attempt count after a manager loss, is a new
// encoding (TaskView.WithAttempt). The service stamps a single-frame
// submission by writing the full header over the submitted one, in the
// request body, up against the payload (EncodeTaskInto). One record has
// one encoding whichever way it was made: Encode(Decode(b)) == b for
// every b an encoder wrote, patched or not.
//
// Both ends of a framed GET /v1/events stream know where a frame ends
// from its two lengths, so the stream is frames back to back with
// nothing between them: the server writes an event's head
// (AppendEventHead) and then the stored result, copying neither into
// the other, and EventReader hands each event out with its Result in
// one allocation of the frame's size.
//
// Everything else here is off the per-task path and stays JSON:
// registrations, advice, status, DAG records, and the Server-Sent
// Events encoding of the task event (EncodeEvent, whose result member
// is the result frame in base64), which GET /v1/events still answers
// to a client that does not ask for frames.
package wire

import (
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

// DecodeEvent unframes a task lifecycle event in the JSON encoding.
func DecodeEvent(data []byte) (*types.TaskEvent, error) {
	var e types.TaskEvent
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("wire: decoding event: %w", err)
	}
	return &e, nil
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
