package endpoint

import "funcx/internal/wire"

// taskQueue is the agent's internal FIFO: a ring over []wire.TaskView
// with O(1) (amortized over growth) push at either end and O(1) pop at
// the front. Arrivals go to the back; tasks recovered from a lost
// manager or a failed send go to the front, since they are older than
// everything queued. A slot is zeroed as its task leaves, so the queue
// holds no frame it no longer owns.
type taskQueue struct {
	buf  []wire.TaskView // len(buf) is zero or a power of two
	head int             // index of the front task
	n    int             // tasks queued
}

// Len returns the number of queued tasks.
func (q *taskQueue) Len() int { return q.n }

// PushBack appends v behind everything queued.
func (q *taskQueue) PushBack(v wire.TaskView) {
	q.grow(1)
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront puts v ahead of everything queued.
func (q *taskQueue) PushFront(v wire.TaskView) {
	q.grow(1)
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PopFront removes and returns the oldest task; the queue must not be
// empty.
func (q *taskQueue) PopFront() wire.TaskView {
	v := q.buf[q.head]
	q.buf[q.head] = wire.TaskView{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow makes room for extra more tasks, doubling the ring and
// unwrapping it to the front of the new buffer.
func (q *taskQueue) grow(extra int) {
	need := q.n + extra
	if need <= len(q.buf) {
		return
	}
	size := max(16, len(q.buf))
	for size < need {
		size *= 2
	}
	buf := make([]wire.TaskView, size)
	k := copy(buf, q.buf[q.head:min(q.head+q.n, len(q.buf))])
	copy(buf[k:], q.buf[:q.n-k])
	q.buf, q.head = buf, 0
}
