//go:build linux

package cluster

import (
	"net"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// blackholeListener returns the address of a loopback listener that drops
// every SYN: its accept queue (backlog 0 holds one connection) is filled
// by a connection that is never accepted, so the kernel ignores later
// handshakes until its SYN retries run out.
func blackholeListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	held, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = held.Close() })
	return addr
}

// TestDefaultDialIsBounded: with no Dialer configured, an exchange with a
// peer that drops SYNs fails within peerTimeout instead of stalling the
// caller — the serial anti-entropy loop, a drain's goodbye — for the
// kernel's whole SYN retry schedule.
func TestDefaultDialIsBounded(t *testing.T) {
	peer := blackholeListener(t)
	self := "127.0.0.1:1"
	n, err := NewNode(Config{Self: self, Peers: []string{self, peer}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, _, err := n.ViewPullFrom(peer)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pull from a peer that drops SYNs succeeded")
		}
		if took := time.Since(start); took > peerTimeout+time.Second {
			t.Fatalf("pull took %v, want at most %v", took, peerTimeout+time.Second)
		}
	case <-time.After(peerTimeout + time.Second):
		t.Fatalf("pull from a peer that drops SYNs still running after %v", peerTimeout+time.Second)
	}
}
