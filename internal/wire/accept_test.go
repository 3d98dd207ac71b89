package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// flakyListener fails its first fails Accepts, yields conn on the next,
// and fails every Accept after that. It reports the number of each
// Accept call on calls. Only AcceptLoop's goroutine calls Accept.
type flakyListener struct {
	fails int
	conn  net.Conn
	n     int
	calls chan int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.n++
	l.calls <- l.n
	if l.n == l.fails+1 {
		return l.conn, nil
	}
	return nil, errors.New("accept: too many open files")
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopRetriesAndStops: two failed Accepts are retried, the
// connection that follows reaches the callback once, and closing the
// channel during the backoff after a later failure ends the loop with no
// further Accept. The channel is closed after the ninth failure since
// the connection, whose backoff is 256 ms: a loop that waited the
// backoff out would Accept again first.
func TestAcceptLoopRetriesAndStops(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	ln := &flakyListener{fails: 2, conn: far, calls: make(chan int, 64)}
	closing := make(chan struct{})
	served := make(chan net.Conn, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		AcceptLoop(ln, closing, func(c net.Conn) { served <- c })
	}()

	select {
	case c := <-served:
		if c != far {
			t.Fatalf("callback got %v, want the accepted connection", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the connection after two failed Accepts never reached the callback")
	}
	const last = 3 + 9
	for n := range ln.calls {
		if n == last {
			break
		}
	}
	close(closing)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptLoop did not return after closing")
	}
	if ln.n != last {
		t.Errorf("Accept ran %d times, want %d: none after closing", ln.n, last)
	}
	if len(served) != 0 {
		t.Errorf("callback ran %d more times, want once", len(served))
	}
}
