// Package transport is the ZeroMQ substitute used throughout the funcX
// fabric (paper §4.1, §4.3): the service's forwarders, endpoint agents,
// and node managers all exchange identity-tagged framed messages over
// point-to-point channels.
//
// Two interchangeable implementations are provided:
//
//   - "tcp": length-prefixed frames over real TCP sockets, used by the
//     standalone binaries and the latency experiments;
//   - "inproc": channel-backed connections inside one process, used by
//     tests and the in-process federation of internal/core.
//
// A connection is established with a short handshake in which the
// dialer announces its identity (like a ZeroMQ DEALER socket identity);
// the listener side exposes that identity so a ROUTER-style owner can
// route by peer.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"
)

// MsgType tags the purpose of a message, mirroring the funcX internal
// protocol between forwarder, agent, manager, and worker.
type MsgType uint8

// Protocol message types.
const (
	// MsgRegister announces a component and carries its metadata.
	MsgRegister MsgType = iota + 1
	// MsgRegisterAck acknowledges registration.
	MsgRegisterAck
	// MsgTask carries one packed task toward a worker.
	MsgTask
	// MsgTaskBatch carries several packed tasks in one frame
	// (executor-side batching, §4.7).
	MsgTaskBatch
	// MsgResult carries one packed result toward the service.
	MsgResult
	// MsgHeartbeat is the liveness probe in both directions.
	MsgHeartbeat
	// MsgCapacity is a manager/agent capacity advertisement,
	// including opportunistic prefetch capacity (§4.7).
	MsgCapacity
	// MsgTaskRequest asks the upstream peer for up to N tasks
	// (manager-side batch requests).
	MsgTaskRequest
	// MsgSuspend tells a manager to stop accepting new tasks.
	MsgSuspend
	// MsgShutdown tells the peer to terminate cleanly.
	MsgShutdown
	// MsgStatus carries an endpoint status report.
	MsgStatus
	// MsgAdvice carries scaling advice from the service's elasticity
	// controller to an endpoint agent, piggybacked on the forwarder's
	// heartbeat cycle.
	MsgAdvice
	// MsgRunning signals that a worker has begun executing a task,
	// relayed manager → agent → forwarder so the service can emit the
	// TaskRunning lifecycle event and extend the task's dispatch lease.
	MsgRunning
)

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	//funcx:exhaustive funcx/internal/transport.MsgType
	switch t {
	case MsgRegister:
		return "REGISTER"
	case MsgRegisterAck:
		return "REGISTER_ACK"
	case MsgTask:
		return "TASK"
	case MsgTaskBatch:
		return "TASK_BATCH"
	case MsgResult:
		return "RESULT"
	case MsgHeartbeat:
		return "HEARTBEAT"
	case MsgCapacity:
		return "CAPACITY"
	case MsgTaskRequest:
		return "TASK_REQUEST"
	case MsgSuspend:
		return "SUSPEND"
	case MsgShutdown:
		return "SHUTDOWN"
	case MsgStatus:
		return "STATUS"
	case MsgAdvice:
		return "ADVICE"
	case MsgRunning:
		return "RUNNING"
	default:
		return fmt.Sprintf("MSG(%d)", uint8(t))
	}
}

// Message is one framed unit on the wire.
type Message struct {
	Type    MsgType
	Payload []byte
}

// WarnUndecodable logs a frame from conn that the receiving hop could not
// decode and is dropping: a peer from another build, or a corrupt link.
// The tasks it carried are otherwise seen only by the leases that
// eventually expire on them. peer names the sender's role.
func WarnUndecodable(log *slog.Logger, peer string, conn Conn, msg Message, err error) {
	log.Warn("dropping undecodable frame",
		"peer", peer, "peer_id", conn.RemoteIdentity(), "msg_type", msg.Type.String(), "bytes", len(msg.Payload), "error", err)
}

// Errors returned by connections.
var (
	// ErrClosed is returned after Close (locally or by the peer).
	ErrClosed = errors.New("transport: connection closed")
	// ErrTimeout is returned by timed receives that expire.
	ErrTimeout = errors.New("transport: receive timed out")
	// errTooLarge guards against corrupt length prefixes.
	errTooLarge = errors.New("transport: frame exceeds maximum size")
)

// MaxFrameSize bounds a single frame (64 MiB): funcX restricts data
// passed through the service and relies on out-of-band transfer for
// large data (§4.6), so frames beyond this indicate corruption.
const MaxFrameSize = 64 << 20

// Conn is a bidirectional, identity-tagged message channel. Send is
// safe for concurrent use; Recv must be called from one goroutine at a
// time.
type Conn interface {
	// Send writes one message and hands its payload over: the payload
	// belongs to the receiver, and the sender must not write to it
	// again. An inproc connection delivers the very slice, a TCP one a
	// fresh buffer read off the socket, so a receiver may stamp a frame
	// it was sent where it lies (wire.RestampResult) only where the
	// protocol leaves it the sole holder — a result frame on its way
	// up. A task frame on its way down is shared with the store's
	// record and stays read-only at every hop.
	Send(Message) error
	// Recv blocks for the next message. A timeout <= 0 blocks
	// indefinitely; otherwise ErrTimeout is returned on expiry.
	Recv(timeout time.Duration) (Message, error)
	// RemoteIdentity returns the identity announced by the peer
	// (dialer side returns the listener's address).
	RemoteIdentity() string
	// Close tears down the connection, waking blocked receivers.
	Close() error
}

// Listener accepts incoming connections.
type Listener interface {
	// Accept blocks for the next connection (already handshaken).
	Accept() (Conn, error)
	// Addr returns the address to dial.
	Addr() string
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
}

// Network opens listeners and dials them.
type Network struct {
	Listen func(addr string) (Listener, error)
	Dial   func(addr, identity string) (Conn, error)
}

// registered holds the networks Listen and Dial know by name: the two
// built in, and any Register added.
var registered = struct {
	sync.Mutex
	m map[string]Network
}{m: map[string]Network{
	"tcp":    {Listen: listenTCP, Dial: dialTCP},
	"inproc": {Listen: listenInproc, Dial: dialInproc},
}}

// Register adds a network under a name no other network has, for
// Listen and Dial to open by that name: a wrapper that controls
// delivery for a test (internal/transport/transporttest) is selected
// the way "tcp" and "inproc" are.
func Register(name string, n Network) error {
	registered.Lock()
	defer registered.Unlock()
	if _, ok := registered.m[name]; ok {
		return fmt.Errorf("transport: network %q already registered", name)
	}
	registered.m[name] = n
	return nil
}

func lookup(network string) (Network, error) {
	registered.Lock()
	defer registered.Unlock()
	n, ok := registered.m[network]
	if !ok {
		return Network{}, fmt.Errorf("transport: unknown network %q", network)
	}
	return n, nil
}

// Listen opens a listener. network is "tcp" (addr like "127.0.0.1:0"),
// "inproc" (addr is any unique name; "" picks a fresh one) or a
// registered name.
func Listen(network, addr string) (Listener, error) {
	n, err := lookup(network)
	if err != nil {
		return nil, err
	}
	return n.Listen(addr)
}

// Dial connects to a listener, announcing identity.
func Dial(network, addr, identity string) (Conn, error) {
	n, err := lookup(network)
	if err != nil {
		return nil, err
	}
	return n.Dial(addr, identity)
}

// ---------------------------------------------------------------------------
// TCP implementation

type tcpConn struct {
	c        net.Conn
	identity string // peer identity

	writeMu sync.Mutex
	readMu  sync.Mutex

	closeOnce sync.Once
	closedErr error
}

func listenTCP(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, ErrClosed
	}
	// Handshake: peer sends an identity frame first.
	id, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	return &tcpConn{c: c, identity: string(id.Payload)}, nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

func dialTCP(addr, identity string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn := &tcpConn{c: c, identity: addr}
	if err := conn.Send(Message{Type: MsgRegister, Payload: []byte(identity)}); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	return conn, nil
}

func (t *tcpConn) Send(m Message) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(m.Payload)+1))
	hdr[4] = byte(m.Type)
	if _, err := t.c.Write(hdr[:]); err != nil {
		return ErrClosed
	}
	if len(m.Payload) > 0 {
		if _, err := t.c.Write(m.Payload); err != nil {
			return ErrClosed
		}
	}
	return nil
}

func readFrame(c net.Conn) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c, hdr[:4]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrameSize {
		return Message{}, errTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return Message{}, err
	}
	return Message{Type: MsgType(buf[0]), Payload: buf[1:]}, nil
}

func (t *tcpConn) Recv(timeout time.Duration) (Message, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	if timeout > 0 {
		if err := t.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return Message{}, ErrClosed
		}
	} else {
		if err := t.c.SetReadDeadline(time.Time{}); err != nil {
			return Message{}, ErrClosed
		}
	}
	m, err := readFrame(t.c)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return Message{}, ErrTimeout
		}
		return Message{}, ErrClosed
	}
	return m, nil
}

func (t *tcpConn) RemoteIdentity() string { return t.identity }

func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() { t.closedErr = t.c.Close() })
	return t.closedErr
}

// ---------------------------------------------------------------------------
// In-proc implementation

// inprocRegistry maps address names to accept channels, process-wide.
var inprocRegistry = struct {
	sync.Mutex
	listeners map[string]*inprocListener
	next      int
}{listeners: make(map[string]*inprocListener)}

type inprocListener struct {
	addr   string
	accept chan *inprocConn
	done   chan struct{}
	once   sync.Once
}

func listenInproc(addr string) (Listener, error) {
	inprocRegistry.Lock()
	defer inprocRegistry.Unlock()
	if addr == "" {
		inprocRegistry.next++
		addr = fmt.Sprintf("inproc-%d", inprocRegistry.next)
	}
	if _, exists := inprocRegistry.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	l := &inprocListener{
		addr:   addr,
		accept: make(chan *inprocConn),
		done:   make(chan struct{}),
	}
	inprocRegistry.listeners[addr] = l
	return l, nil
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		inprocRegistry.Lock()
		delete(inprocRegistry.listeners, l.addr)
		inprocRegistry.Unlock()
	})
	return nil
}

// inprocConn is one direction pair of buffered channels. Closing either
// side closes the shared done channel.
type inprocConn struct {
	identity string // peer identity
	recv     chan Message
	send     chan Message
	done     chan struct{}
	once     *sync.Once
}

// inprocBuffer is the per-direction message buffer. Large enough that
// senders rarely block in experiments, small enough to exert
// backpressure rather than grow without bound.
const inprocBuffer = 4096

func dialInproc(addr, identity string) (Conn, error) {
	inprocRegistry.Lock()
	l, ok := inprocRegistry.listeners[addr]
	inprocRegistry.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}
	a2b := make(chan Message, inprocBuffer)
	b2a := make(chan Message, inprocBuffer)
	done := make(chan struct{})
	once := &sync.Once{}
	dialSide := &inprocConn{identity: addr, recv: b2a, send: a2b, done: done, once: once}
	acceptSide := &inprocConn{identity: identity, recv: a2b, send: b2a, done: done, once: once}
	select {
	case l.accept <- acceptSide:
		return dialSide, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (c *inprocConn) Send(m Message) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	select {
	case c.send <- m:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *inprocConn) Recv(timeout time.Duration) (Message, error) {
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	// Drain buffered messages even after close, so results sent just
	// before shutdown are not lost.
	select {
	case m := <-c.recv:
		return m, nil
	default:
	}
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.done:
		// Final drain race: a message may have landed between the
		// selects.
		select {
		case m := <-c.recv:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	case <-timerC:
		return Message{}, ErrTimeout
	}
}

func (c *inprocConn) RemoteIdentity() string { return c.identity }

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
