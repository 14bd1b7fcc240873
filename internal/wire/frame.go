package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"funcx/internal/types"
)

// Binary frames for the per-task records (see the package comment for
// the layout). The encoders emit fields in tag order and omit zero
// values, so a record has exactly one encoding and Encode(Decode(b))
// is a fixed point for any b a decoder accepts.

// Format bytes. None is '{' or '[': a record written by the JSON codec
// this one replaced is recognised by its first byte and rejected with
// ErrLegacyJSON. 0x03 was the result frame whose stamps were varints; a
// result decoder names it with ErrLegacyResult.
const (
	formatTask         byte = 0x01
	formatTasks        byte = 0x02
	formatResultVarint byte = 0x03
	formatCapacity     byte = 0x04
	formatTaskStart    byte = 0x05
	formatEvent        byte = 0x06
	formatHeartbeat    byte = 0x07
	formatGap          byte = 0x08
	formatResult       byte = 0x09
)

// ErrLegacyJSON is returned (wrapped) by every frame decoder for a
// record in the JSON encoding used before binary frames. There is no
// fallback decoder: a data dir holding such records was written by an
// older build and is not readable.
var ErrLegacyJSON = errors.New("legacy JSON record (written before binary frames)")

// ErrLegacyResult is returned (wrapped) by the result decoder for a
// result frame in the layout used before its stamps became fixed-width.
// There is no second decoder: a data dir holding such results, or a
// peer sending them, belongs to an older build.
var ErrLegacyResult = errors.New("legacy result frame (written before fixed-width stamps)")

// errFrame is the cause of every malformed-frame error.
var errFrame = errors.New("malformed frame")

// taskTag names one header field of a task frame.
type taskTag byte

const (
	tagTaskID taskTag = iota + 1
	tagTaskFunction
	tagTaskEndpoint
	tagTaskOwner
	tagTaskContainerTech
	tagTaskContainerImage
	tagTaskGroup
	tagTaskSelector // repeated, sorted by key: uvarint key length | key | value
	tagTaskBodyHash
	tagTaskFlags // taskMemoize | taskAtMostOnce
	tagTaskBatchN
	tagTaskAttempt
	tagTaskWalltime
	tagTaskMaxRetries
	tagTaskSubmitted
	tagTaskTrace // present iff Trace != nil: sampled byte | trace id
)

const (
	taskMemoize byte = 1 << iota
	taskAtMostOnce
)

// resultTag names one header field of a result frame.
type resultTag byte

const (
	tagResultTaskID resultTag = iota + 1
	tagResultErr
	tagResultCompleted
	tagResultTiming // 4 × int64: TS, TF, TE, TW
	tagResultWorker
	tagResultFlags // resultMemoized | resultLost
	tagResultTrace // present iff Trace != nil; 3 × int64: Exec, ManagerQueue, AgentQueue
)

const (
	resultMemoized byte = 1 << iota
	resultLost
)

// capacityTag names one header field of a capacity frame.
type capacityTag byte

const (
	tagCapacityManager capacityTag = iota + 1
	tagCapacityFree                // repeated, sorted by key: uvarint key length | key | varint count
	tagCapacitySlots
	tagCapacityPrefetch
	tagCapacityTotal
)

// taskStartTag names one header field of an execution-start frame.
type taskStartTag byte

const (
	tagTaskStartTaskID taskStartTag = iota + 1
	tagTaskStartWorker
	tagTaskStartManager
)

// eventTag names one header field of an event frame.
type eventTag byte

const (
	tagEventSeq eventTag = iota + 1
	tagEventTaskID
	tagEventStatus
	tagEventEndpoint
	tagEventDAG
	tagEventTime
)

// --- encoding ---

// frameOverhead is the bytes of a frame that are neither header nor
// body: the format byte and the two lengths.
const frameOverhead = 1 + 4 + 4

// appendFrame appends one frame: format, header and body, each of the
// last two behind its length.
func appendFrame(b []byte, format byte, header, body []byte) []byte {
	b = binary.BigEndian.AppendUint32(append(b, format), uint32(len(header)))
	b = binary.BigEndian.AppendUint32(append(b, header...), uint32(len(body)))
	return append(b, body...)
}

// frame returns one frame in an allocation of exactly its size: the
// store keeps these for the life of the task.
func frame(format byte, header, body []byte) []byte {
	return appendFrame(make([]byte, 0, frameOverhead+len(header)+len(body)), format, header, body)
}

func appendField(b []byte, tag byte, n int) []byte {
	return binary.AppendUvarint(append(b, tag), uint64(n))
}

func appendString(b []byte, tag byte, s string) []byte {
	if s == "" {
		return b
	}
	return append(appendField(b, tag, len(s)), s...)
}

// appendInts writes one field holding vs as consecutive varints.
func appendInts(b []byte, tag byte, vs ...int64) []byte {
	var tmp [4 * binary.MaxVarintLen64]byte
	v := tmp[:0]
	for _, x := range vs {
		v = binary.AppendVarint(v, x)
	}
	return append(appendField(b, tag, len(v)), v...)
}

func appendInt(b []byte, tag byte, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInts(b, tag, v)
}

// appendFixed writes one field holding vs as consecutive big-endian
// int64s: a field of known width whatever its values, so that a later
// hop can rewrite them where they lie (RestampResult).
func appendFixed(b []byte, tag byte, vs ...int64) []byte {
	b = append(b, tag, byte(8*len(vs)))
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendFlags(b []byte, tag, flags byte) []byte {
	if flags == 0 {
		return b
	}
	return append(b, tag, 1, flags)
}

// appendTime writes a non-zero time as seconds and nanoseconds since
// the Unix epoch; the location is not carried (decoders return UTC).
func appendTime(b []byte, tag byte, t time.Time) []byte {
	if t.IsZero() {
		return b
	}
	b = append(b, tag, 12)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()))
	return binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
}

// appendSortedKeys appends m's keys to dst in order: a map field is
// written sorted so that a record has one encoding.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendKeyed writes one entry of a map field: the key behind its
// length, then the value to the end of the field.
func appendKeyed[V string | []byte](b []byte, tag byte, k string, v V) []byte {
	var kl [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(kl[:], uint64(len(k)))
	b = appendField(b, tag, n+len(k)+len(v))
	return append(append(append(b, kl[:n]...), k...), v...)
}

// HeaderRoom is the bytes a header gets before anyone knows its length:
// the stack space an encoder builds it in before the frame is allocated
// (a longer header — a long error, many selectors — spills to the heap),
// and the spare bytes a reader leaves in front of a submission it may
// hand to EncodeTaskInto, which is room for all the service stamps on
// one (id, owner, container, body hash, attempt, submission time, trace
// context).
const HeaderRoom = 320

func appendTaskHeader(b []byte, t *types.Task) []byte {
	b = appendString(b, byte(tagTaskID), string(t.ID))
	b = appendString(b, byte(tagTaskFunction), string(t.FunctionID))
	b = appendString(b, byte(tagTaskEndpoint), string(t.EndpointID))
	b = appendString(b, byte(tagTaskOwner), string(t.Owner))
	b = appendString(b, byte(tagTaskContainerTech), string(t.Container.Tech))
	b = appendString(b, byte(tagTaskContainerImage), t.Container.Image)
	b = appendString(b, byte(tagTaskGroup), string(t.GroupID))
	var keys [4]string
	for _, k := range appendSortedKeys(keys[:0], t.Selector) {
		b = appendKeyed(b, byte(tagTaskSelector), k, t.Selector[k])
	}
	b = appendString(b, byte(tagTaskBodyHash), t.BodyHash)
	var flags byte
	if t.Memoize {
		flags |= taskMemoize
	}
	if t.AtMostOnce {
		flags |= taskAtMostOnce
	}
	b = appendFlags(b, byte(tagTaskFlags), flags)
	b = appendInt(b, byte(tagTaskBatchN), int64(t.BatchN))
	b = appendInt(b, byte(tagTaskAttempt), int64(t.Attempt))
	b = appendInt(b, byte(tagTaskWalltime), int64(t.Walltime))
	b = appendInt(b, byte(tagTaskMaxRetries), int64(t.MaxRetries))
	b = appendTime(b, byte(tagTaskSubmitted), t.Submitted)
	if t.Trace != nil {
		b = appendField(b, byte(tagTaskTrace), 1+len(t.Trace.TraceID))
		var sampled byte
		if t.Trace.Sampled {
			sampled = 1
		}
		b = append(append(b, sampled), t.Trace.TraceID...)
	}
	return b
}

// EncodeTask frames a task for the store, the WAL and transport.
func EncodeTask(t *types.Task) []byte {
	var scratch [HeaderRoom]byte
	return frame(formatTask, appendTaskHeader(scratch[:0], t), t.Payload)
}

// EncodeTaskInto is EncodeTask for a task whose Payload is the tail of
// buf, as when buf is a request body the task was read out of: the
// header is written right-aligned against the payload inside buf, the
// payload is not copied, and the frame returned is buf's tail. Whatever
// lay in front of the payload — all of buf, for a task that has none —
// is given up to be overwritten, so nothing else may still read it. A
// payload that is not buf's tail, or a header longer than the room in
// front of it, gets EncodeTask's fresh allocation instead.
func EncodeTaskInto(buf []byte, t *types.Task) []byte {
	var scratch [HeaderRoom]byte
	header := appendTaskHeader(scratch[:0], t)
	at := len(buf) - len(t.Payload) // where the payload would start
	off := at - frameOverhead - len(header)
	if off < 0 || (len(t.Payload) > 0 && &buf[at] != &t.Payload[0]) {
		return frame(formatTask, header, t.Payload)
	}
	head := appendFrame(buf[off:off], formatTask, header, nil) // ends in a zero body length
	binary.BigEndian.PutUint32(head[len(head)-4:], uint32(len(t.Payload)))
	return buf[off:len(buf):len(buf)]
}

// EncodeTasks frames a batch of tasks (executor-side batching): the
// count, then each task's frame behind its length.
func EncodeTasks(ts []*types.Task) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, t := range ts {
		size += 4 + frameOverhead + HeaderRoom + len(t.Payload)
	}
	b := append(make([]byte, 0, size), formatTasks)
	b = binary.AppendUvarint(b, uint64(len(ts)))
	var scratch [HeaderRoom]byte
	for _, t := range ts {
		header := appendTaskHeader(scratch[:0], t)
		b = binary.BigEndian.AppendUint32(b, uint32(frameOverhead+len(header)+len(t.Payload)))
		b = appendFrame(b, formatTask, header, t.Payload)
	}
	return b
}

// JoinTasks frames a batch out of task frames already encoded: the
// bytes EncodeTasks makes of the tasks they hold.
func JoinTasks(frames [][]byte) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, f := range frames {
		size += 4 + len(f)
	}
	b := append(make([]byte, 0, size), formatTasks)
	b = binary.AppendUvarint(b, uint64(len(frames)))
	for _, f := range frames {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	return b
}

// EncodeResult frames a result for transport and the store.
func EncodeResult(r *types.Result) []byte {
	var scratch [HeaderRoom]byte
	b := appendString(scratch[:0], byte(tagResultTaskID), string(r.TaskID))
	b = appendString(b, byte(tagResultErr), r.Err)
	b = appendTime(b, byte(tagResultCompleted), r.Completed)
	if r.Timing != (types.Timing{}) {
		b = appendFixed(b, byte(tagResultTiming), int64(r.Timing.TS), int64(r.Timing.TF), int64(r.Timing.TE), int64(r.Timing.TW))
	}
	b = appendString(b, byte(tagResultWorker), string(r.WorkerID))
	var flags byte
	if r.Memoized {
		flags |= resultMemoized
	}
	if r.Lost {
		flags |= resultLost
	}
	b = appendFlags(b, byte(tagResultFlags), flags)
	if r.Trace != nil {
		b = appendFixed(b, byte(tagResultTrace), int64(r.Trace.Exec), int64(r.Trace.ManagerQueue), int64(r.Trace.AgentQueue))
	}
	return frame(formatResult, b, r.Output)
}

// RestampResult returns r's frame, given the frame r was decoded from
// and that only r's stamps — Timing and the values of Trace — were
// changed since. The stamps are fixed-width, so they are overwritten
// where they lie and frame itself comes back, its body never read; the
// caller must be the frame's only holder. A stamp section that has to
// appear or go (a zero Timing is not written, so a result that had
// none gains the section with its first stamp) is a re-encode.
func RestampResult(frame []byte, r *types.Result) []byte {
	var deltas types.TraceDeltas
	if r.Trace != nil {
		deltas = *r.Trace
	}
	if f, err := openResult(frame); err != nil || !f.putStamps(r.Timing, deltas, r.Trace != nil) {
		return EncodeResult(r)
	}
	return frame
}

// putStamps writes the stamps over the ones in the frame f was opened
// from, if it holds exactly the sections they encode to.
func (f *resultFields) putStamps(t types.Timing, d types.TraceDeltas, traced bool) bool {
	if (f.timing != nil) != (t != types.Timing{}) || (f.deltas != nil) != traced {
		return false
	}
	if f.timing != nil {
		putFixed(f.timing, int64(t.TS), int64(t.TF), int64(t.TE), int64(t.TW))
	}
	if f.deltas != nil {
		putFixed(f.deltas, int64(d.Exec), int64(d.ManagerQueue), int64(d.AgentQueue))
	}
	return true
}

func putFixed(dst []byte, vs ...int64) {
	for i, v := range vs {
		binary.BigEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// EncodeCapacity frames a capacity advertisement: a header and no
// body. An empty Free is not written and decodes as nil.
func EncodeCapacity(c *types.Capacity) []byte {
	var scratch [HeaderRoom]byte
	b := appendString(scratch[:0], byte(tagCapacityManager), string(c.ManagerID))
	var keys [4]string
	for _, k := range appendSortedKeys(keys[:0], c.Free) {
		var n [binary.MaxVarintLen64]byte
		b = appendKeyed(b, byte(tagCapacityFree), k, binary.AppendVarint(n[:0], int64(c.Free[k])))
	}
	b = appendInt(b, byte(tagCapacitySlots), int64(c.Slots))
	b = appendInt(b, byte(tagCapacityPrefetch), int64(c.Prefetch))
	b = appendInt(b, byte(tagCapacityTotal), int64(c.Total))
	return frame(formatCapacity, b, nil)
}

// EncodeTaskStart frames an execution-start signal: a header and no
// body.
func EncodeTaskStart(s *TaskStart) []byte {
	var scratch [HeaderRoom]byte
	b := appendString(scratch[:0], byte(tagTaskStartTaskID), string(s.TaskID))
	b = appendString(b, byte(tagTaskStartWorker), string(s.WorkerID))
	b = appendString(b, byte(tagTaskStartManager), string(s.ManagerID))
	return frame(formatTaskStart, b, nil)
}

// AppendEventHead appends everything of e's event frame but its body:
// the frame is complete once the caller has written e.Result, the
// stored result frame, behind it. A stream handler writes the two in
// turn, so a result is never copied to be framed.
func AppendEventHead(b []byte, e *types.TaskEvent) []byte {
	b = append(b, formatEvent, 0, 0, 0, 0)
	at := len(b)
	b = appendInt(b, byte(tagEventSeq), int64(e.Seq))
	b = appendString(b, byte(tagEventTaskID), string(e.TaskID))
	b = appendString(b, byte(tagEventStatus), string(e.Status))
	b = appendString(b, byte(tagEventEndpoint), string(e.EndpointID))
	b = appendString(b, byte(tagEventDAG), string(e.DAGID))
	b = appendTime(b, byte(tagEventTime), e.Time)
	binary.BigEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	return binary.BigEndian.AppendUint32(b, uint32(len(e.Result)))
}

// EventHeartbeat and EventGap are the two signals of a framed event
// stream, each a frame of its own format with neither header nor body:
// the keep-alive of an idle stream, and the notice that the subscriber
// fell behind the replay ring and must start over.
const (
	EventHeartbeat = "\x07\x00\x00\x00\x00\x00\x00\x00\x00"
	EventGap       = "\x08\x00\x00\x00\x00\x00\x00\x00\x00"
)

// --- decoding ---

// checkFormat checks a frame's first byte, naming the JSON encoding
// when that is what it finds.
func checkFormat(data []byte, format byte) error {
	switch {
	case len(data) == 0:
		return fmt.Errorf("%w: empty", errFrame)
	case data[0] == '{' || data[0] == '[':
		return ErrLegacyJSON
	case format == formatResult && data[0] == formatResultVarint:
		return ErrLegacyResult
	case data[0] != format:
		return fmt.Errorf("%w: format byte %#x, want %#x", errFrame, data[0], format)
	}
	return nil
}

// openFrame checks the format byte and splits a frame into its header
// and body. Both alias data; nothing is allocated, whatever lengths
// the frame claims.
func openFrame(data []byte, format byte) (header, body []byte, err error) {
	if err := checkFormat(data, format); err != nil {
		return nil, nil, err
	}
	rest := data[1:]
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated header length", errFrame)
	}
	hl := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(hl) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: header length %d exceeds the %d bytes left", errFrame, hl, len(rest))
	}
	header, rest = rest[:hl], rest[hl:]
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated body length", errFrame)
	}
	bl := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(bl) != uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: body length %d, %d bytes left", errFrame, bl, len(rest))
	}
	if bl == 0 {
		return header, nil, nil
	}
	return header, rest, nil
}

// nextField returns the tag of the header field at off and the bounds
// of its value; the next field starts at hi.
func nextField(header []byte, off int) (tag byte, lo, hi int, err error) {
	tag = header[off]
	n, w := binary.Uvarint(header[off+1:])
	if w <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: field %d: bad length", errFrame, tag)
	}
	lo = off + 1 + w
	if n > uint64(len(header)-lo) {
		return 0, 0, 0, fmt.Errorf("%w: field %d: length %d exceeds the %d header bytes left", errFrame, tag, n, len(header)-lo)
	}
	return tag, lo, lo + int(n), nil
}

// ints reads exactly len(dst) varints filling v.
func ints(tag byte, v []byte, dst ...*int64) error {
	for _, d := range dst {
		x, w := binary.Varint(v)
		if w <= 0 {
			return fmt.Errorf("%w: field %d: bad varint", errFrame, tag)
		}
		*d, v = x, v[w:]
	}
	if len(v) != 0 {
		return fmt.Errorf("%w: field %d: %d trailing bytes", errFrame, tag, len(v))
	}
	return nil
}

// openHeaderFrame opens a frame that carries no body.
func openHeaderFrame(data []byte, format byte) (header []byte, err error) {
	header, body, err := openFrame(data, format)
	if err == nil && len(body) != 0 {
		err = fmt.Errorf("%w: %d body bytes in a frame that has no body", errFrame, len(body))
	}
	return header, err
}

// keyLen reads the key length that opens an entry of a map field and
// returns the bounds of the key within v.
func keyLen(tag byte, v []byte) (lo, hi int, err error) {
	kl, w := binary.Uvarint(v)
	if w <= 0 || kl > uint64(len(v)-w) {
		return 0, 0, fmt.Errorf("%w: field %d: bad key length", errFrame, tag)
	}
	return w, w + int(kl), nil
}

func flagsOf(tag byte, v []byte, known byte) (byte, error) {
	if len(v) != 1 || v[0]&^known != 0 {
		return 0, fmt.Errorf("%w: field %d: bad flags % x", errFrame, tag, v)
	}
	return v[0], nil
}

func timeOf(tag byte, v []byte) (time.Time, error) {
	if len(v) != 12 {
		return time.Time{}, fmt.Errorf("%w: field %d: time of %d bytes", errFrame, tag, len(v))
	}
	nsec := binary.BigEndian.Uint32(v[8:])
	if nsec >= 1e9 {
		return time.Time{}, fmt.Errorf("%w: field %d: %d nanoseconds", errFrame, tag, nsec)
	}
	return time.Unix(int64(binary.BigEndian.Uint64(v)), int64(nsec)).UTC(), nil
}

func decodeTask(data []byte) (*types.Task, error) {
	header, body, err := openFrame(data, formatTask)
	if err != nil {
		return nil, err
	}
	t := &types.Task{Payload: body}
	// One copy of the header backs every string field: a decode costs
	// one allocation for all of them. A task record lives as long as
	// its hop works on it, so a field kept longer pins little.
	strs := string(header)
	for off := 0; off < len(header); {
		tag, lo, hi, err := nextField(header, off)
		if err != nil {
			return nil, err
		}
		s, v := strs[lo:hi], header[lo:hi]
		off = hi
		var n int64
		//funcx:exhaustive funcx/internal/wire.taskTag
		switch taskTag(tag) {
		case tagTaskID:
			t.ID = types.TaskID(s)
		case tagTaskFunction:
			t.FunctionID = types.FunctionID(s)
		case tagTaskEndpoint:
			t.EndpointID = types.EndpointID(s)
		case tagTaskOwner:
			t.Owner = types.UserID(s)
		case tagTaskContainerTech:
			t.Container.Tech = types.ContainerTech(s)
		case tagTaskContainerImage:
			t.Container.Image = s
		case tagTaskGroup:
			t.GroupID = types.GroupID(s)
		case tagTaskSelector:
			klo, khi, err := keyLen(tag, v)
			if err != nil {
				return nil, err
			}
			if t.Selector == nil {
				t.Selector = make(map[string]string)
			}
			t.Selector[s[klo:khi]] = s[khi:]
		case tagTaskBodyHash:
			t.BodyHash = s
		case tagTaskFlags:
			flags, err := flagsOf(tag, v, taskMemoize|taskAtMostOnce)
			if err != nil {
				return nil, err
			}
			t.Memoize, t.AtMostOnce = flags&taskMemoize != 0, flags&taskAtMostOnce != 0
		case tagTaskBatchN:
			err = ints(tag, v, &n)
			t.BatchN = int(n)
		case tagTaskAttempt:
			err = ints(tag, v, &n)
			t.Attempt = int(n)
		case tagTaskWalltime:
			err = ints(tag, v, &n)
			t.Walltime = time.Duration(n)
		case tagTaskMaxRetries:
			err = ints(tag, v, &n)
			t.MaxRetries = int(n)
		case tagTaskSubmitted:
			t.Submitted, err = timeOf(tag, v)
		case tagTaskTrace:
			if len(v) == 0 || v[0] > 1 {
				return nil, fmt.Errorf("%w: field %d: bad trace context", errFrame, tag)
			}
			t.Trace = &types.TraceContext{Sampled: v[0] == 1, TraceID: s[1:]}
		default:
			return nil, fmt.Errorf("%w: unknown task field %d", errFrame, tag)
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DecodeTask unframes a task. The returned task's Payload aliases
// data, which the caller must not rewrite afterwards.
func DecodeTask(data []byte) (*types.Task, error) {
	t, err := decodeTask(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding task: %w", err)
	}
	return t, nil
}

// TaskView is a task frame opened in place: the decoded header beside
// the bytes it was decoded from. A hop that only routes, queues or
// leases a task reads Head and sends Raw on, so the frame is neither
// re-encoded nor copied. Head says what Raw holds and is read-only; a
// hop that must change a field makes a new view (WithAttempt), whose
// Raw is a fresh encoding.
type TaskView struct {
	// Head is the decoded task; its Payload aliases Raw.
	Head *types.Task
	// Raw is the frame as received.
	Raw []byte
}

// ViewTask opens a task frame; the view keeps data, which the caller
// must not rewrite afterwards.
func ViewTask(data []byte) (TaskView, error) {
	t, err := DecodeTask(data)
	return TaskView{Head: t, Raw: data}, err
}

// WithAttempt is the view of the same task on another delivery attempt.
func (v TaskView) WithAttempt(attempt int) TaskView {
	t := *v.Head
	t.Attempt = attempt
	raw := EncodeTask(&t)
	if len(t.Payload) > 0 {
		t.Payload = raw[len(raw)-len(t.Payload):] // let go of the old frame
	}
	return TaskView{Head: &t, Raw: raw}
}

// IsTaskBatch reports whether data declares itself a batch of tasks
// (DecodeTasks) by its format byte, where a reader takes either that or
// one task frame.
func IsTaskBatch(data []byte) bool { return len(data) > 0 && data[0] == formatTasks }

// DecodeTasks unframes a batch of tasks; their Payloads alias data.
func DecodeTasks(data []byte) ([]*types.Task, error) {
	ts, err := decodeTasks(data, func(t *types.Task, _ []byte) *types.Task { return t })
	if err != nil {
		return nil, fmt.Errorf("wire: decoding task batch: %w", err)
	}
	return ts, nil
}

// ViewTasks opens a batch of tasks; each view's Raw is its frame inside
// data (what JoinTasks put there), which the caller must not rewrite
// afterwards.
func ViewTasks(data []byte) ([]TaskView, error) {
	vs, err := decodeTasks(data, func(t *types.Task, raw []byte) TaskView { return TaskView{Head: t, Raw: raw} })
	if err != nil {
		return nil, fmt.Errorf("wire: decoding task batch: %w", err)
	}
	return vs, nil
}

// decodeTasks decodes each entry of a batch and collects what entry
// makes of the task and its frame.
func decodeTasks[T any](data []byte, entry func(*types.Task, []byte) T) ([]T, error) {
	if err := checkFormat(data, formatTasks); err != nil {
		return nil, err
	}
	count, w := binary.Uvarint(data[1:])
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad task count", errFrame)
	}
	rest := data[1+w:]
	// The smallest entry is 13 bytes (length, format, two empty
	// lengths): a count the bytes cannot hold is rejected before it
	// sizes anything.
	if count > uint64(len(rest)/13) {
		return nil, fmt.Errorf("%w: %d tasks claimed in %d bytes", errFrame, count, len(rest))
	}
	out := make([]T, 0, count)
	for range count {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated task length", errFrame)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: task length %d exceeds the %d bytes left", errFrame, n, len(rest))
		}
		t, err := decodeTask(rest[:n:n])
		if err != nil {
			return nil, err
		}
		out, rest = append(out, entry(t, rest[:n:n])), rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last task", errFrame, len(rest))
	}
	return out, nil
}

// DecodeResult unframes a result. The returned result's Output
// aliases data, which the caller must not rewrite afterwards.
func DecodeResult(data []byte) (*types.Result, error) {
	r, err := decodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding result: %w", err)
	}
	return r, nil
}

// resultFields is a result frame opened in place: one walk over its
// header that checks every field and leaves each value where it lies.
// The decoder, the in-place reader and the stamp writer all start
// here, so a result header has one parser.
type resultFields struct {
	body            []byte
	id, err, worker []byte
	completed       time.Time
	flags           byte
	// timing and deltas are the fixed-width stamp sections, nil when
	// the frame has none.
	timing, deltas []byte
}

func openResult(data []byte) (resultFields, error) {
	var f resultFields
	header, body, err := openFrame(data, formatResult)
	if err != nil {
		return f, err
	}
	f.body = body
	for off := 0; off < len(header); {
		tag, lo, hi, err := nextField(header, off)
		if err != nil {
			return f, err
		}
		v := header[lo:hi]
		off = hi
		//funcx:exhaustive funcx/internal/wire.resultTag
		switch resultTag(tag) {
		case tagResultTaskID:
			f.id = v
		case tagResultErr:
			f.err = v
		case tagResultCompleted:
			f.completed, err = timeOf(tag, v)
		case tagResultTiming:
			f.timing, err = fixedSection(tag, v, 4)
		case tagResultWorker:
			f.worker = v
		case tagResultFlags:
			f.flags, err = flagsOf(tag, v, resultMemoized|resultLost)
		case tagResultTrace:
			f.deltas, err = fixedSection(tag, v, 3)
		default:
			return f, fmt.Errorf("%w: unknown result field %d", errFrame, tag)
		}
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// fixedSection checks that v holds exactly n fixed-width int64s.
func fixedSection(tag byte, v []byte, n int) ([]byte, error) {
	if len(v) != 8*n {
		return nil, fmt.Errorf("%w: field %d: %d bytes, want %d", errFrame, tag, len(v), 8*n)
	}
	return v, nil
}

// getFixed reads the i-th int64 of a fixed-width section.
func getFixed(v []byte, i int) time.Duration {
	return time.Duration(binary.BigEndian.Uint64(v[8*i:]))
}

// stamps reads the stamp sections; an absent one reads as zero.
func (f *resultFields) stamps() (types.Timing, types.TraceDeltas) {
	var t types.Timing
	var d types.TraceDeltas
	if f.timing != nil {
		t = types.Timing{TS: getFixed(f.timing, 0), TF: getFixed(f.timing, 1), TE: getFixed(f.timing, 2), TW: getFixed(f.timing, 3)}
	}
	if f.deltas != nil {
		d = types.TraceDeltas{Exec: getFixed(f.deltas, 0), ManagerQueue: getFixed(f.deltas, 1), AgentQueue: getFixed(f.deltas, 2)}
	}
	return t, d
}

func decodeResult(data []byte) (*types.Result, error) {
	f, err := openResult(data)
	if err != nil {
		return nil, err
	}
	return f.result(), nil
}

// result is the decoded result. Each string is its own copy: the task
// id becomes a key of the results hash and the event ring and must not
// pin the rest of the header for as long as they keep it.
func (f *resultFields) result() *types.Result {
	r := &types.Result{
		TaskID:    types.TaskID(f.id),
		Output:    f.body,
		Err:       string(f.err),
		Completed: f.completed,
		WorkerID:  types.WorkerID(f.worker),
		Memoized:  f.flags&resultMemoized != 0,
		Lost:      f.flags&resultLost != 0,
	}
	timing, deltas := f.stamps()
	r.Timing = timing
	if f.deltas != nil {
		r.Trace = new(types.TraceDeltas)
		*r.Trace = deltas
	}
	return r
}

// ResultView is a result frame read in place: its task id and stamps,
// which are all a hop between the manager and the service reads of a
// result. TaskID aliases the frame. A hop changes Timing and the values
// of Trace, then forwards Restamp's bytes.
type ResultView struct {
	TaskID []byte
	// Failed says the result carries an error.
	Failed bool
	Timing types.Timing
	// Trace holds the trace deltas when Traced; a frame without them
	// has Traced false and gains none.
	Trace  types.TraceDeltas
	Traced bool

	frame  []byte
	fields resultFields
}

// ViewResult reads a result frame in place, allocating nothing. It
// accepts exactly the frames DecodeResult accepts.
func ViewResult(frame []byte) (ResultView, error) {
	f, err := openResult(frame)
	if err != nil {
		return ResultView{}, fmt.Errorf("wire: decoding result: %w", err)
	}
	v := ResultView{TaskID: f.id, Failed: len(f.err) > 0, Traced: f.deltas != nil, frame: frame, fields: f}
	v.Timing, v.Trace = f.stamps()
	return v, nil
}

// Restamp returns the viewed frame with v's stamps: RestampResult's
// bytes for the decoded result carrying them. They are written where
// they lie, and only a stamp section that has to appear or go takes a
// decode and a re-encode. The caller must be the frame's only holder.
func (v *ResultView) Restamp() []byte {
	if v.fields.putStamps(v.Timing, v.Trace, v.Traced) {
		return v.frame
	}
	r := v.fields.result()
	r.Timing = v.Timing
	if v.Traced {
		*r.Trace = v.Trace
	}
	return EncodeResult(r)
}

// DecodeCapacity unframes a capacity advertisement.
func DecodeCapacity(data []byte) (*types.Capacity, error) {
	c, err := decodeCapacity(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding capacity: %w", err)
	}
	return c, nil
}

func decodeCapacity(data []byte) (*types.Capacity, error) {
	header, err := openHeaderFrame(data, formatCapacity)
	if err != nil {
		return nil, err
	}
	c := &types.Capacity{}
	// One copy of the header backs the manager id and the Free keys: an
	// advertisement is replaced by the manager's next one.
	strs := string(header)
	for off := 0; off < len(header); {
		tag, lo, hi, err := nextField(header, off)
		if err != nil {
			return nil, err
		}
		s, v := strs[lo:hi], header[lo:hi]
		off = hi
		var n int64
		//funcx:exhaustive funcx/internal/wire.capacityTag
		switch capacityTag(tag) {
		case tagCapacityManager:
			c.ManagerID = types.ManagerID(s)
		case tagCapacityFree:
			klo, khi, err := keyLen(tag, v)
			if err != nil {
				return nil, err
			}
			if err := ints(tag, v[khi:], &n); err != nil {
				return nil, err
			}
			if c.Free == nil {
				c.Free = make(map[string]int)
			}
			c.Free[s[klo:khi]] = int(n)
		case tagCapacitySlots:
			err = ints(tag, v, &n)
			c.Slots = int(n)
		case tagCapacityPrefetch:
			err = ints(tag, v, &n)
			c.Prefetch = int(n)
		case tagCapacityTotal:
			err = ints(tag, v, &n)
			c.Total = int(n)
		default:
			return nil, fmt.Errorf("%w: unknown capacity field %d", errFrame, tag)
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DecodeTaskStart unframes an execution-start signal.
func DecodeTaskStart(data []byte) (*TaskStart, error) {
	s, err := decodeTaskStart(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding task start: %w", err)
	}
	return s, nil
}

// TaskStartID reads the task id of an execution-start frame in place:
// the id aliases data, and nothing is allocated. It accepts exactly the
// frames DecodeTaskStart accepts.
func TaskStartID(data []byte) ([]byte, error) {
	f, err := openTaskStart(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding task start: %w", err)
	}
	return f.id, nil
}

func decodeTaskStart(data []byte) (*TaskStart, error) {
	f, err := openTaskStart(data)
	if err != nil {
		return nil, err
	}
	return &TaskStart{TaskID: types.TaskID(f.id), WorkerID: types.WorkerID(f.worker), ManagerID: types.ManagerID(f.manager)}, nil
}

// taskStartFields is an execution-start frame opened in place.
type taskStartFields struct {
	id, worker, manager []byte
}

func openTaskStart(data []byte) (taskStartFields, error) {
	var f taskStartFields
	header, err := openHeaderFrame(data, formatTaskStart)
	if err != nil {
		return f, err
	}
	for off := 0; off < len(header); {
		tag, lo, hi, err := nextField(header, off)
		if err != nil {
			return f, err
		}
		v := header[lo:hi]
		off = hi
		//funcx:exhaustive funcx/internal/wire.taskStartTag
		switch taskStartTag(tag) {
		case tagTaskStartTaskID:
			f.id = v
		case tagTaskStartWorker:
			f.worker = v
		case tagTaskStartManager:
			f.manager = v
		default:
			return f, fmt.Errorf("%w: unknown task start field %d", errFrame, tag)
		}
	}
	return f, nil
}

// DecodeEventFrame unframes a task lifecycle event. The returned
// event's Result aliases data, which the caller must not rewrite
// afterwards.
func DecodeEventFrame(data []byte) (*types.TaskEvent, error) {
	e, err := decodeEventFrame(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding event frame: %w", err)
	}
	return e, nil
}

func decodeEventFrame(data []byte) (*types.TaskEvent, error) {
	header, body, err := openFrame(data, formatEvent)
	if err != nil {
		return nil, err
	}
	e, err := decodeEventHeader(header)
	if err != nil {
		return nil, err
	}
	e.Result = body
	return e, nil
}

func decodeEventHeader(header []byte) (*types.TaskEvent, error) {
	e := &types.TaskEvent{}
	// One copy of the header backs every string field: a stream
	// consumer drops the event once it has routed the result.
	strs := string(header)
	for off := 0; off < len(header); {
		tag, lo, hi, err := nextField(header, off)
		if err != nil {
			return nil, err
		}
		s, v := strs[lo:hi], header[lo:hi]
		off = hi
		//funcx:exhaustive funcx/internal/wire.eventTag
		switch eventTag(tag) {
		case tagEventSeq:
			var n int64
			err = ints(tag, v, &n)
			e.Seq = uint64(n)
		case tagEventTaskID:
			e.TaskID = types.TaskID(s)
		case tagEventStatus:
			e.Status = types.TaskStatus(s)
		case tagEventEndpoint:
			e.EndpointID = types.EndpointID(s)
		case tagEventDAG:
			e.DAGID = types.DAGID(s)
		case tagEventTime:
			e.Time, err = timeOf(tag, v)
		default:
			return nil, fmt.Errorf("%w: unknown event field %d", errFrame, tag)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ErrEventGap is returned by EventReader.Next for the gap signal: the
// server could not resume the subscription from its replay ring, and
// ends the stream.
var ErrEventGap = errors.New("wire: event stream gap")

// maxEventHeader bounds the header an EventReader accepts: a seq, a
// time and four short strings.
const maxEventHeader = 4 << 10

// EventReader reads the framed encoding of GET /v1/events.
type EventReader struct {
	r       *bufio.Reader
	maxBody int
}

// NewEventReader reads events from r. An event whose result is longer
// than maxBody is returned without it.
func NewEventReader(r io.Reader, maxBody int) *EventReader {
	// Room to peek a whole head; a body longer than the buffer is read
	// past it, straight into its own allocation.
	return &EventReader{r: bufio.NewReaderSize(r, 4*maxEventHeader), maxBody: maxBody}
}

// Next returns the stream's next event, passing over heartbeats. The
// event and its Result share one new allocation of the frame's size;
// a Result above the reader's bound is discarded unread and the event
// comes back without one, as a replayed event does. Next returns
// ErrEventGap for the gap signal and io.EOF at the end of a stream
// that stops between frames.
func (er *EventReader) Next() (*types.TaskEvent, error) {
	for {
		e, err := er.next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrEventGap) {
				err = fmt.Errorf("wire: reading event stream: %w", err)
			}
			return nil, err
		}
		if e != nil {
			return e, nil
		}
	}
}

// next reads one frame; a heartbeat returns neither event nor error.
func (er *EventReader) next() (*types.TaskEvent, error) {
	if _, err := er.r.Peek(1); err != nil {
		return nil, err // io.EOF: the stream ended between frames
	}
	head, err := er.peek(1 + 4)
	if err != nil {
		return nil, err
	}
	format, hl := head[0], int(binary.BigEndian.Uint32(head[1:]))
	switch {
	case format != formatEvent && format != formatHeartbeat && format != formatGap:
		return nil, checkFormat(head, formatEvent)
	case hl > maxEventHeader:
		return nil, fmt.Errorf("%w: header length %d exceeds %d", errFrame, hl, maxEventHeader)
	}
	if head, err = er.peek(frameOverhead + hl); err != nil {
		return nil, err
	}
	bl := binary.BigEndian.Uint32(head[1+4+hl:])
	switch {
	case format != formatEvent:
		if hl != 0 || bl != 0 {
			return nil, fmt.Errorf("%w: signal %#x with a header or a body", errFrame, format)
		}
		er.r.Discard(frameOverhead) //nolint:errcheck // peeked above
		if format == formatGap {
			return nil, ErrEventGap
		}
		return nil, nil
	case uint64(bl) > uint64(er.maxBody):
		e, err := decodeEventHeader(head[1+4 : 1+4+hl])
		if err != nil {
			return nil, err
		}
		if _, err := er.r.Discard(frameOverhead + hl + int(bl)); err != nil {
			return nil, unexpectedEOF(err)
		}
		return e, nil
	}
	buf := make([]byte, frameOverhead+hl+int(bl))
	if _, err := io.ReadFull(er.r, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return decodeEventFrame(buf)
}

// peek is Peek for the inside of a frame, where the end of the stream
// is a truncation.
func (er *EventReader) peek(n int) ([]byte, error) {
	b, err := er.r.Peek(n)
	return b, unexpectedEOF(err)
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
