// Package a seeds lockhold violations and clean patterns.
package a

import (
	"net"
	"os"
	"sync"
	"time"
)

type S struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	conn net.Conn
	f    *os.File
	ch   chan int
}

func (s *S) badNetWriteUnderLock(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(b) // want `net write .* may block while "s.mu" is held`
}

func (s *S) goodUnlockBeforeWrite(b []byte) {
	s.mu.Lock()
	data := append([]byte(nil), b...)
	s.mu.Unlock()
	s.conn.Write(data)
}

func (s *S) badSleepUnderRLock() {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want `time.Sleep .* while "s.rw" is held`
	s.rw.RUnlock()
}

func (s *S) badFsyncUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `file fsync .* while "s.mu" is held`
}

func (s *S) badChanSendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send may block while "s.mu" is held`
	s.mu.Unlock()
}

func (s *S) badChanRecvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive may block while "s.mu" is held`
}

func (s *S) badRangeChanUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for v := range s.ch { // want `range over channel may block while "s.mu" is held`
		total += v
	}
	return total
}

func (s *S) badSelectNoDefaultUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select without default may block while "s.mu" is held`
	case v := <-s.ch:
		_ = v
	}
}

// goodNonBlockingPublish is the publishLocked pattern: a select with a
// default never blocks, so holding the lock across it is fine.
func (s *S) goodNonBlockingPublish(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// goodBranchUnlock releases on the early-return path; the write after
// the final unlock is lock-free.
func (s *S) goodBranchUnlock(b []byte) error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	_, err := s.conn.Write(b)
	return err
}

// goodGoroutineDoesNotInherit spawns the write on a fresh goroutine,
// which does not hold the caller's lock.
func (s *S) goodGoroutineDoesNotInherit(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.conn.Write(b)
	}()
}

func (s *S) ignoredDeliberateHold(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(b) //geodabs:vet-ignore fixture: deliberate write under lock
}
