// Package transporttest provides a network for tests that must decide
// when a message's delivery completes. A Net wraps the inproc transport
// under a name of its own, so a component is pointed at it the way it
// is pointed at "inproc", by network name, and the test holds and
// releases the Sends made on its connections: the window between a
// frame reaching its peer and its sender learning so, which a real
// link opens only now and then, opens on every run.
package transporttest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"funcx/internal/transport"
)

// Net is an inproc network whose Sends the test can hold.
type Net struct {
	name string
	held chan transport.Message

	mu sync.Mutex
	// release is non-nil while Sends are held; closing it lets them go.
	release chan struct{}
}

var lastNet atomic.Int64

// NewNet registers a Net under a fresh name.
func NewNet() *Net {
	n := &Net{name: fmt.Sprintf("transporttest-%d", lastNet.Add(1)), held: make(chan transport.Message)}
	if err := transport.Register(n.name, transport.Network{Listen: n.listen, Dial: n.dial}); err != nil {
		panic(err) // the name is fresh
	}
	return n
}

// Name is the network name to give Listen and Dial.
func (n *Net) Name() string { return n.name }

// HoldSends makes every Send on the network's connections that starts
// from now on make its delivery attempt and then block, until
// ReleaseSends. Each held Send offers its message on Held. A test that
// holds Sends releases them before it stops what is sending.
func (n *Net) HoldSends() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.release == nil {
		n.release = make(chan struct{})
	}
}

// ReleaseSends lets the held Sends return, and stops holding new ones.
func (n *Net) ReleaseSends() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.release != nil {
		close(n.release)
		n.release = nil
	}
}

// Held receives the message of each Send that is being held, once it
// has been delivered (or has failed to be).
func (n *Net) Held() <-chan transport.Message { return n.held }

func (n *Net) listen(addr string) (transport.Listener, error) {
	l, err := transport.Listen("inproc", addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: l, net: n}, nil
}

func (n *Net) dial(addr, identity string) (transport.Conn, error) {
	c, err := transport.Dial("inproc", addr, identity)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, net: n}, nil
}

type listener struct {
	transport.Listener
	net *Net
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, net: l.net}, nil
}

type conn struct {
	transport.Conn
	net *Net
}

func (c *conn) Send(m transport.Message) error {
	c.net.mu.Lock()
	release := c.net.release
	c.net.mu.Unlock()
	err := c.Conn.Send(m)
	if release != nil {
		select {
		case c.net.held <- m:
		case <-release:
		}
		<-release
	}
	return err
}
