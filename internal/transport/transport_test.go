package transport

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"
)

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.DialTimeout != DefaultDialTimeout || c.WriteTimeout != DefaultWriteTimeout {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.HandshakeTimeout != DefaultDialTimeout {
		t.Errorf("handshake timeout should follow dial timeout: %+v", c)
	}
	// An explicit dial timeout governs the handshake too: that is the
	// -dial-timeout flag reaching every handshake read.
	c = Config{DialTimeout: 123 * time.Millisecond}.WithDefaults()
	if c.HandshakeTimeout != 123*time.Millisecond {
		t.Errorf("handshake timeout should inherit explicit dial timeout: %+v", c)
	}
	c = Config{HandshakeTimeout: time.Second, DialTimeout: time.Minute}.WithDefaults()
	if c.HandshakeTimeout != time.Second {
		t.Errorf("explicit handshake timeout overridden: %+v", c)
	}
}

func TestTCPDialListen(t *testing.T) {
	tr := TCP{Config: Config{DialTimeout: 2 * time.Second}}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr != nil {
			done <- nil
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _ := c.Read(buf)
		done <- buf[:n]
	}()
	conn, err := tr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "hello" {
		t.Errorf("accepted read = %q", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: DgramFrame, Token: 0xdeadbeefcafe, Epoch: 7, Seq: 1 << 40, Tick: 12345}
	buf := h.AppendTo(nil)
	if len(buf) != HeaderLen {
		t.Fatalf("header length %d, want %d", len(buf), HeaderLen)
	}
	payload := []byte("frame-bytes")
	buf = append(buf, payload...)
	var got Header
	rest, err := ParseHeader(buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("parsed %+v, want %+v", got, h)
	}
	if !bytes.Equal(rest, payload) {
		t.Errorf("payload %q, want %q", rest, payload)
	}
}

func TestParseHeaderRejectsShortAndUnknown(t *testing.T) {
	var h Header
	if _, err := ParseHeader(make([]byte, HeaderLen-1), &h); err != ErrShortDatagram {
		t.Errorf("short datagram error = %v", err)
	}
	bad := Header{Kind: DgramFrame}.AppendTo(nil)
	bad[0] = 99
	if _, err := ParseHeader(bad, &h); err != ErrBadKind {
		t.Errorf("unknown kind error = %v", err)
	}
}

func TestHeaderPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	h := Header{Kind: DgramFrame, Token: 1, Epoch: 2, Seq: 3, Tick: 4}
	buf := make([]byte, 0, HeaderLen)
	var out Header
	allocs := testing.AllocsPerRun(1000, func() {
		buf = h.AppendTo(buf[:0])
		if _, err := ParseHeader(buf, &out); err != nil {
			t.Fatal(err)
		}
		h.Seq++
	})
	if allocs != 0 {
		t.Errorf("header append+parse allocates %.1f/op, want 0", allocs)
	}
}

func TestDatagramPipeDeliversAndDrops(t *testing.T) {
	a, b := NewDatagramPipe(2)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, err := a.WriteToUDPAddrPort([]byte{byte(i)}, netip.AddrPort{}); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2: exactly the first two datagrams survive, the rest were
	// dropped silently — the unreliable contract.
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		b.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := b.ReadFromUDPAddrPort(buf)
		if err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("read %d: n=%d b=%v err=%v", i, n, buf[:n], err)
		}
	}
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := b.ReadFromUDPAddrPort(buf); err == nil {
		t.Error("expected timeout after queue drained")
	} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Errorf("timeout error = %v", err)
	}
}

func TestDatagramPipeCloseUnblocksReader(t *testing.T) {
	a, b := NewDatagramPipe(1)
	defer b.Close()
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		//lint:ignore conndeadline the test asserts Close unblocks a deadline-free read
		_, _, err := a.ReadFromUDPAddrPort(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if err != ErrPipeClosed {
			t.Errorf("read after close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by Close")
	}
}

func TestUDPConnImplementsDatagramConn(t *testing.T) {
	uc, err := ListenDatagram("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	var dc DatagramConn = uc
	if dc.LocalAddr() == nil {
		t.Error("no local addr")
	}
}
