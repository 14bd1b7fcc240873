package taskrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"time"

	"funcx/internal/types"
)

// The journal holds Events and the snapshot holds Records, both as a
// flat run of uvarints and length-prefixed strings in field order. An
// unset field costs its one zero byte, so an event carries little more
// than what it changes.

var errShort = errors.New("taskrec: truncated encoding")

func appendBytes[T ~string | ~[]byte](b []byte, v T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader consumes one encoding; the first error sticks.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err, r.b = errShort, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns the next field, aliasing the input.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if uint64(len(r.b)) < n {
		r.err, r.b = errShort, nil
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// frame returns the next field as its own copy (nil when empty), so a
// decoded record does not pin the journal buffer it came from.
func (r *reader) frame() []byte {
	if v := r.bytes(); len(v) > 0 {
		return bytes.Clone(v)
	}
	return nil
}

// AppendEvent appends ev's encoding to b.
func AppendEvent(b []byte, ev Event) []byte {
	b = append(b, byte(ev.Kind))
	b = appendBytes(b, ev.ID)
	b = appendBytes(b, ev.Owner)
	b = appendBytes(b, ev.Endpoint)
	b = binary.AppendUvarint(b, uint64(ev.Attempt))
	b = binary.AppendUvarint(b, uint64(ev.TS))
	b = appendBool(b, ev.Memoize)
	b = appendBytes(b, ev.Status)
	b = appendBytes(b, ev.Frame)
	b = appendBytes(b, ev.DAGID)
	var at uint64
	if !ev.At.IsZero() {
		at = uint64(ev.At.UnixNano())
	}
	return binary.AppendUvarint(b, at)
}

// DecodeEvent is the inverse of AppendEvent.
func DecodeEvent(b []byte) (Event, error) {
	if len(b) == 0 {
		return Event{}, errShort
	}
	r := &reader{b: b[1:]}
	ev := Event{
		Kind:     Kind(b[0]),
		ID:       types.TaskID(r.bytes()),
		Owner:    types.UserID(r.bytes()),
		Endpoint: types.EndpointID(r.bytes()),
		Attempt:  int(r.uvarint()),
		TS:       time.Duration(r.uvarint()),
		Memoize:  r.uvarint() != 0,
		Status:   types.TaskStatus(r.bytes()),
		Frame:    r.frame(),
		DAGID:    types.DAGID(r.bytes()),
	}
	if at := r.uvarint(); at != 0 {
		ev.At = time.Unix(0, int64(at))
	}
	return ev, r.err
}

// AppendRecord appends rec's encoding to b.
func AppendRecord(b []byte, rec Record) []byte {
	b = appendBytes(b, rec.owner)
	b = appendBytes(b, rec.endpoint)
	b = appendBytes(b, rec.status)
	b = binary.AppendUvarint(b, uint64(rec.attempt))
	b = binary.AppendUvarint(b, uint64(rec.ts))
	b = appendBool(b, rec.memoize)
	b = appendBytes(b, rec.task)
	b = appendBytes(b, rec.result)
	return binary.AppendUvarint(b, uint64(rec.expiry))
}

// DecodeRecord decodes one record from the front of b and returns what
// follows it.
func DecodeRecord(b []byte) (Record, []byte, error) {
	r := &reader{b: b}
	rec := Record{
		owner:    types.UserID(r.bytes()),
		endpoint: types.EndpointID(r.bytes()),
		status:   types.TaskStatus(r.bytes()),
		attempt:  int(r.uvarint()),
		ts:       time.Duration(r.uvarint()),
		memoize:  r.uvarint() != 0,
		task:     r.frame(),
		result:   r.frame(),
		expiry:   int64(r.uvarint()),
	}
	return rec, r.b, r.err
}
