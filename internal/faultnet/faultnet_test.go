package faultnet

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// tcpPair returns two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func TestNoFaultsPassesThrough(t *testing.T) {
	a, b := tcpPair(t)
	fa := Wrap(a, Faults{Seed: 1}, nil)
	msg := []byte("hello over the wire")
	go func() {
		if _, err := fa.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Errorf("got %q", buf)
	}
	if n := fa.Stats().Total(); n != 0 {
		t.Errorf("injected %d faults with all probabilities zero", n)
	}
}

func TestWriteErrorInjection(t *testing.T) {
	a, _ := tcpPair(t)
	c := Wrap(a, Faults{Seed: 7, WriteErrProb: 1}, nil)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c.Stats().WriteErrs.Load() != 1 {
		t.Errorf("WriteErrs = %d", c.Stats().WriteErrs.Load())
	}
}

func TestReadErrorInjection(t *testing.T) {
	a, _ := tcpPair(t)
	c := Wrap(a, Faults{Seed: 7, ReadErrProb: 1}, nil)
	if _, err := c.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c.Stats().ReadErrs.Load() != 1 {
		t.Errorf("ReadErrs = %d", c.Stats().ReadErrs.Load())
	}
}

func TestPartialWriteDeliversPrefixThenFails(t *testing.T) {
	a, b := tcpPair(t)
	c := Wrap(a, Faults{Seed: 3, PartialWriteProb: 1}, nil)
	payload := []byte("0123456789abcdef")
	n, err := c.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("partial write of %d bytes, want strict prefix", n)
	}
	// The prefix really reached the peer.
	buf := make([]byte, n)
	if err := b.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(payload[:n]) {
		t.Errorf("peer got %q, want %q", buf, payload[:n])
	}
}

func TestResetClosesUnderlyingConn(t *testing.T) {
	a, b := tcpPair(t)
	c := Wrap(a, Faults{Seed: 5, ResetProb: 1}, nil)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Peer observes the closed stream.
	if err := b.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after reset")
	}
	if c.Stats().Resets.Load() != 1 {
		t.Errorf("Resets = %d", c.Stats().Resets.Load())
	}
}

func TestBlackholeHonoursReadDeadline(t *testing.T) {
	a, _ := tcpPair(t)
	c := Wrap(a, Faults{Seed: 9, BlackholeProb: 1}, nil)
	if err := c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Read(make([]byte, 4))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("blackhole returned after %v, before the deadline", elapsed)
	}
}

func TestBlackholeUnblocksOnClose(t *testing.T) {
	a, _ := tcpPair(t)
	c := Wrap(a, Faults{Seed: 9, BlackholeProb: 1}, nil)
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blackholed read did not unblock on Close")
	}
}

func TestLatencyInjection(t *testing.T) {
	a, b := tcpPair(t)
	c := Wrap(a, Faults{Seed: 11, LatencyProb: 1, Latency: 30 * time.Millisecond}, nil)
	start := time.Now()
	go func() {
		_, _ = c.Write([]byte("x"))
	}()
	if err := b.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("write completed in %v, want >= latency", elapsed)
	}
	if c.Stats().Latencies.Load() == 0 {
		t.Error("no latency recorded")
	}
}

// TestDeterministicSchedule: identical seeds produce identical fault
// decisions for an identical call sequence.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []bool {
		a, _ := tcpPair(t)
		c := Wrap(a, Faults{Seed: seed, WriteErrProb: 0.5}, nil)
		out := make([]bool, 64)
		for i := range out {
			_, err := c.Write([]byte("abcdef"))
			out[i] = err != nil
		}
		return out
	}
	one, two := run(42), run(42)
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("schedules diverge at call %d", i)
		}
	}
	other := run(43)
	same := true
	for i := range one {
		if one[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := WrapListener(raw, Faults{Seed: 1, ReadErrProb: 1})
	defer l.Close()
	go func() {
		conn, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write([]byte("x"))
		time.Sleep(100 * time.Millisecond)
	}()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn read err = %v, want ErrInjected", err)
	}
	if l.Stats().ReadErrs.Load() != 1 {
		t.Errorf("listener stats = %d read errors", l.Stats().ReadErrs.Load())
	}
}

func TestDialerProducesFaultyConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		for {
			conn, err := raw.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	dial, stats := Dialer(raw.Addr().String(), Faults{Seed: 2, WriteErrProb: 1})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if stats.WriteErrs.Load() != 1 {
		t.Errorf("shared stats = %d write errors", stats.WriteErrs.Load())
	}
}

// TestGateKillsAndHeals: a shared gate fails live connections and new
// dials deterministically while down, and everything works again once
// healed — the exact peer-death/revival cycle the cluster suite drives.
func TestGateKillsAndHeals(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		for {
			conn, err := raw.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	var gate Gate
	dial, stats := GatedDialer(raw.Addr().String(), &gate)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Gate up: the connection echoes.
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}

	// Gate down: the live connection fails its next operation, and new
	// dials are refused.
	gate.SetDown(true)
	if !gate.Down() {
		t.Error("Down() = false after SetDown(true)")
	}
	if _, err := conn.Write([]byte("ping")); !errors.Is(err, ErrInjected) {
		t.Errorf("gated write err = %v, want ErrInjected", err)
	}
	if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
		t.Errorf("gated read err = %v, want ErrInjected", err)
	}
	if _, err := dial(); !errors.Is(err, ErrInjected) {
		t.Errorf("gated dial err = %v, want ErrInjected", err)
	}
	if got := stats.Gated.Load(); got != 3 {
		t.Errorf("Gated = %d, want 3", got)
	}
	if stats.Total() != 3 {
		t.Errorf("Total = %d, want 3", stats.Total())
	}

	// Healed: new dials and operations succeed again.
	gate.SetDown(false)
	conn2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn2, buf); err != nil {
		t.Fatal(err)
	}
}

// TestGateDoesNotPerturbSchedule: flipping a gate consumes no random
// draws, so the probabilistic fault schedule is identical with and
// without gate checks in between.
func TestGateDoesNotPerturbSchedule(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()

	run := func(gate *Gate) []bool {
		c := Wrap(a, Faults{Seed: 7, WriteErrProb: 0.5, Gate: gate}, nil)
		outcomes := make([]bool, 0, 16)
		for i := 0; i < 16; i++ {
			if gate != nil {
				gate.SetDown(true)
				if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
					t.Fatalf("gated write err = %v", err)
				}
				gate.SetDown(false)
			}
			_, err := c.Write([]byte("x"))
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}

	plain := run(nil)
	gated := run(&Gate{})
	for i := range plain {
		if plain[i] != gated[i] {
			t.Fatalf("schedules diverge at op %d: plain=%v gated=%v", i, plain, gated)
		}
	}
}

// TestGateHoldParksWrites: between Hold and Resume a gated Write blocks
// and then goes through untouched; a connection closed meanwhile gets its
// parked write back.
func TestGateHoldParksWrites(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	var gate Gate
	c := Wrap(a, Faults{Gate: &gate}, nil)
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		got <- string(buf[:n])
	}()

	gate.Hold()
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("parked"))
		wrote <- err
	}()
	for gate.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-wrote:
		t.Fatalf("write returned (%v) while the gate was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.Resume()
	if err := <-wrote; err != nil {
		t.Fatalf("resumed write: %v", err)
	}
	if s := <-got; s != "parked" {
		t.Errorf("peer read %q, want the parked bytes", s)
	}

	gate.Hold()
	go func() {
		_, err := c.Write([]byte("never"))
		wrote <- err
	}()
	for gate.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	_ = c.Close()
	if err := <-wrote; err == nil {
		t.Error("write parked on a closed connection succeeded")
	}
	if gate.Waiting() != 0 {
		t.Errorf("Waiting = %d after the connection closed, want 0", gate.Waiting())
	}
}
