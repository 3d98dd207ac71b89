// Package cluster stands in for geodabs/internal/cluster — this fixture
// module is named geodabs so the package sits at that import path — and
// seeds its frame helpers' findings: a frame read or sent under the node
// or coordinator lock blocks every reader and writer of the shard on one
// peer's socket.
package cluster

import (
	"net"
	"sync"
)

type frames struct{ conn net.Conn }

func (f *frames) read() ([]byte, error) { return nil, nil }
func (f *frames) send(b []byte) error   { return nil }
func (f *frames) write(b []byte) error  { return nil }

// nodeConn embeds frames as the coordinator's pooled connections do.
type nodeConn struct{ *frames }

type Node struct {
	mu sync.RWMutex
	f  *frames
}

func (n *Node) badFrameReadUnderRLock() {
	n.mu.RLock()
	n.f.read() // want `frame read .* while "n.mu" is held`
	n.mu.RUnlock()
}

func (n *Node) badFrameWriteUnderLock(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.f.write(b) // want `frame write .* while "n.mu" is held`
}

// goodSendAfterUnlock builds the frame under the lock and sends it after.
func (n *Node) goodSendAfterUnlock(b []byte) error {
	n.mu.RLock()
	out := append([]byte(nil), b...)
	n.mu.RUnlock()
	return n.f.send(out)
}

type Coordinator struct {
	mu sync.RWMutex
	nc *nodeConn
}

func (c *Coordinator) badFrameSendUnderLock(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nc.send(b) // want `frame send .* while "c.mu" is held`
}
