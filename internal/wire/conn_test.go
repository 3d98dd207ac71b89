package wire

import (
	"bytes"
	"net"
	"testing"
)

// connPair returns the two framed ends of a loopback TCP connection.
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // nil on failure: the test then fails below
		accepted <- c
	}()
	ac, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ac.Close() })
	bc := <-accepted
	if bc == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { bc.Close() })
	return NewConn(ac, MaxFrame), NewConn(bc, MaxFrame)
}

// TestConnBoundsRetainedStorage: a connection that carried one wide frame
// each way keeps no more than retainLimit of storage per direction once
// small frames follow, and small frames then cost no allocation.
func TestConnBoundsRetainedStorage(t *testing.T) {
	a, b := connPair(t)
	// send writes payload from one end and reads it at the other. The
	// write runs beside the read: a frame larger than the socket buffers
	// blocks until it is read.
	send := func(from, to *Conn, payload []byte) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- from.SendFrame(append(from.BeginFrame(), payload...)) }()
		p, err := to.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payload) {
			t.Fatalf("read %d bytes, sent %d", len(p), len(payload))
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	wide := bytes.Repeat([]byte{0xA5}, 4<<20)
	send(a, b, wide)
	send(b, a, wide)

	small := []byte("a small frame, as a ping or a search reply")
	exchange := func() {
		for _, pair := range [][2]*Conn{{a, b}, {b, a}} {
			from, to := pair[0], pair[1]
			if err := from.SendFrame(append(from.BeginFrame(), small...)); err != nil {
				t.Fatal(err)
			}
			p, err := to.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, small) {
				t.Fatalf("read %q, sent %q", p, small)
			}
		}
	}
	exchange()
	for name, c := range map[string]*Conn{"dialing end": a, "accepting end": b} {
		if cap(c.in) > retainLimit || cap(c.out) > retainLimit {
			t.Errorf("%s keeps %d B read and %d B write storage, want at most %d each", name, cap(c.in), cap(c.out), retainLimit)
		}
	}
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Errorf("a small frame each way allocates %.1f times, want 0", n)
	}
}
