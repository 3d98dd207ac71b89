package wire

import (
	"net"
	"time"
)

// acceptBackoffMax bounds the exponential backoff between retries of a
// persistently failing Accept.
const acceptBackoffMax = time.Second

// AcceptLoop hands each connection ln accepts to serve, on the calling
// goroutine, until closing is closed. A transient Accept error (EMFILE,
// ECONNABORTED, ...) keeps the loop serving, but consecutive failures
// back off exponentially from 1 ms to 1 s, reset by the next success —
// a persistent error such as file-descriptor exhaustion would otherwise
// spin the loop at 100% CPU until it clears. A closed closing ends the
// loop after the Accept in progress, or at once during a backoff; the
// owner closes ln with it, so that Accept returns.
func AcceptLoop(ln net.Listener, closing <-chan struct{}, serve func(net.Conn)) {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-closing:
				return
			default:
			}
			if backoff < time.Millisecond {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-time.After(backoff):
			case <-closing:
				return
			}
			continue
		}
		backoff = 0
		serve(conn)
	}
}
