package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// networks lists both implementations; every behavioral test runs
// against each.
var networks = []string{"inproc", "tcp"}

func pair(t *testing.T, network string) (server Conn, client Conn) {
	t.Helper()
	ln, err := Listen(network, "")
	if err != nil {
		t.Fatalf("Listen(%s): %v", network, err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan Conn, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- c
	}()
	client, err = Dial(network, ln.Addr(), "client-7")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	select {
	case server = <-accepted:
	case err := <-errc:
		t.Fatalf("Accept: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("Accept timed out")
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

func TestIdentityHandshake(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			server, _ := pair(t, network)
			if got := server.RemoteIdentity(); got != "client-7" {
				t.Fatalf("server sees identity %q, want client-7", got)
			}
		})
	}
}

func TestSendRecvBothDirections(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			server, client := pair(t, network)
			msg := Message{Type: MsgTask, Payload: []byte("payload-1")}
			if err := client.Send(msg); err != nil {
				t.Fatalf("client Send: %v", err)
			}
			got, err := server.Recv(time.Second)
			if err != nil || got.Type != MsgTask || !bytes.Equal(got.Payload, msg.Payload) {
				t.Fatalf("server Recv = %+v, %v", got, err)
			}
			reply := Message{Type: MsgResult, Payload: []byte("ok")}
			if err := server.Send(reply); err != nil {
				t.Fatalf("server Send: %v", err)
			}
			got, err = client.Recv(time.Second)
			if err != nil || got.Type != MsgResult {
				t.Fatalf("client Recv = %+v, %v", got, err)
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			_, client := pair(t, network)
			start := time.Now()
			_, err := client.Recv(30 * time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if time.Since(start) < 25*time.Millisecond {
				t.Fatal("returned before timeout")
			}
		})
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			server, client := pair(t, network)
			server.Close()
			// Eventually the client sees ErrClosed (in-proc may first
			// drain buffered messages; there are none here).
			deadline := time.Now().Add(time.Second)
			for time.Now().Before(deadline) {
				_, err := client.Recv(50 * time.Millisecond)
				if errors.Is(err, ErrClosed) {
					return
				}
			}
			t.Fatal("client never observed close")
		})
	}
}

func TestEmptyPayload(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			server, client := pair(t, network)
			if err := client.Send(Message{Type: MsgHeartbeat}); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv(time.Second)
			if err != nil || got.Type != MsgHeartbeat || len(got.Payload) != 0 {
				t.Fatalf("Recv = %+v, %v", got, err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			server, client := pair(t, network)
			const senders, perSender = 4, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						payload := fmt.Appendf(nil, "%d:%d", s, i)
						if err := client.Send(Message{Type: MsgTask, Payload: payload}); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			seen := map[string]bool{}
			for i := 0; i < senders*perSender; i++ {
				msg, err := server.Recv(2 * time.Second)
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				key := string(msg.Payload)
				if seen[key] {
					t.Fatalf("duplicate frame %q", key)
				}
				seen[key] = true
			}
			wg.Wait()
		})
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	server, client := pair(t, "tcp")
	prop := func(tp uint8, payload []byte) bool {
		if tp == 0 {
			tp = 1
		}
		msg := Message{Type: MsgType(tp), Payload: payload}
		if err := client.Send(msg); err != nil {
			return false
		}
		got, err := server.Recv(2 * time.Second)
		return err == nil && got.Type == msg.Type && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			ln, err := Listen(network, "")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := ln.Accept()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			ln.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Accept = %v, want ErrClosed", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Accept not unblocked")
			}
		})
	}
}

func TestInprocAddressReuse(t *testing.T) {
	ln, err := Listen("inproc", "fixed-name")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen("inproc", "fixed-name"); err == nil {
		t.Fatal("double bind succeeded")
	}
	ln.Close()
	ln2, err := Listen("inproc", "fixed-name")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	ln2.Close()
}

func TestDialUnknownInproc(t *testing.T) {
	if _, err := Dial("inproc", "no-such-listener", "id"); err == nil {
		t.Fatal("Dial to unknown inproc address succeeded")
	}
}

func TestUnknownNetwork(t *testing.T) {
	if _, err := Listen("udp", ""); err == nil {
		t.Fatal("Listen(udp) succeeded")
	}
	if _, err := Dial("udp", "x", "id"); err == nil {
		t.Fatal("Dial(udp) succeeded")
	}
}

func TestMsgTypeString(t *testing.T) {
	for tp := MsgRegister; tp <= MsgStatus; tp++ {
		if s := tp.String(); s == "" || s[0] == 'M' && s != "MSG" && len(s) > 3 && s[:3] == "MSG" {
			t.Fatalf("MsgType(%d) has no name: %q", tp, s)
		}
	}
	if MsgType(200).String() != "MSG(200)" {
		t.Fatal(MsgType(200).String())
	}
}

func TestInprocDrainAfterClose(t *testing.T) {
	server, client := pair(t, "inproc")
	// Buffered message sent just before close must still be readable.
	if err := client.Send(Message{Type: MsgResult, Payload: []byte("final")}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got, err := server.Recv(time.Second)
	if err != nil || string(got.Payload) != "final" {
		t.Fatalf("Recv after close = %+v, %v (results sent before shutdown must not be lost)", got, err)
	}
}

// A name is registered once: the built-in networks and an earlier
// registration keep theirs, and an unknown name opens nothing.
func TestRegisterRefusesTakenName(t *testing.T) {
	inproc := Network{Listen: listenInproc, Dial: dialInproc}
	for _, name := range networks {
		if err := Register(name, inproc); err == nil {
			t.Errorf("Register(%q) replaced a built-in network", name)
		}
	}
	if err := Register("test-register-once", inproc); err != nil {
		t.Fatal(err)
	}
	if err := Register("test-register-once", inproc); err == nil {
		t.Error("a second Register of one name succeeded")
	}
	if _, err := Listen("test-register-never", ""); err == nil {
		t.Error("Listen on an unregistered network succeeded")
	}
}
