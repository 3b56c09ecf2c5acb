package fognet

import (
	"net"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/protocol"
)

// heldPayload arms a shared payload for n link references plus one the
// test keeps, so the payload never returns to the pool under the test and
// "each reference released exactly once" reads as refs == 1.
func heldPayload(n int) *sharedPayload {
	sp := newSharedPayload(n + 1)
	sp.buf.B = protocol.Heartbeat{Seq: 7}.AppendTo(sp.buf.B[:0])
	return sp
}

func (sp *sharedPayload) msg() outMsg {
	return outMsg{typ: protocol.MsgHeartbeat, payload: sp.buf.B, shared: sp}
}

// TestLinkQueueAndFlushAccounting drives one link over a pipe with no
// CloudServer behind it: a full queue drops and counts without blocking,
// awaitFlushed tracks the writer's Write rather than the queue, and every
// shared-payload reference handed to enqueue is released exactly once
// whether the message was flushed, dropped, or caught by the link dying.
func TestLinkQueueAndFlushAccounting(t *testing.T) {
	var counters linkCounters
	var wg sync.WaitGroup
	local, peer := net.Pipe()
	defer peer.Close()
	l := newLink(local, 2, 5*time.Second, &counters)

	// Drop path: the writer is not running, so the third message finds the
	// queue full.
	sp := heldPayload(3)
	for i, want := range []bool{true, true, false} {
		if got := l.enqueue(sp.msg()); got != want {
			t.Fatalf("enqueue %d = %v, want %v", i, got, want)
		}
	}
	if drops, inflight := counters.queueDrops.Load(), l.inflight.Load(); drops != 1 || inflight != 2 {
		t.Fatalf("after overflow: %d drops, %d in flight; want 1 and 2", drops, inflight)
	}
	if refs := sp.refs.Load(); refs != 3 {
		t.Fatalf("after overflow: %d references held, want 3 (two queued, the test's)", refs)
	}

	// Flush path. A pipe Write blocks until the peer reads, so once the
	// writer has emptied the queue the link is still not flushed.
	l.start(&wg)
	waitFor(t, 2*time.Second, "writer drains the queue", func() bool { return len(l.sendQ) == 0 })
	soon := time.NewTimer(50 * time.Millisecond)
	defer soon.Stop()
	if l.awaitFlushed(soon.C) {
		t.Fatal("awaitFlushed returned with the writer still inside Write")
	}
	frame := make([]byte, 2*(protocol.HeaderLen+len(sp.buf.B)))
	if _, err := peer.Read(frame); err != nil {
		t.Fatal(err)
	}
	later := time.NewTimer(2 * time.Second)
	defer later.Stop()
	if !l.awaitFlushed(later.C) {
		t.Fatal("awaitFlushed gave up after the peer read everything")
	}
	if refs, inflight := sp.refs.Load(), l.inflight.Load(); refs != 1 || inflight != 0 {
		t.Fatalf("after flush: %d references, %d in flight; want 1 and 0", refs, inflight)
	}

	// Dead-link path: one message inside a blocked Write, two queued behind
	// it, then the peer goes away.
	dead := heldPayload(3)
	l.enqueue(dead.msg())
	waitFor(t, 2*time.Second, "writer picks the message up", func() bool { return len(l.sendQ) == 0 })
	l.enqueue(dead.msg())
	l.enqueue(dead.msg())
	peer.Close()
	wg.Wait()
	if refs := dead.refs.Load(); refs != 1 {
		t.Fatalf("after the link died: %d references held, want 1", refs)
	}
	select {
	case <-l.done:
	default:
		t.Fatal("a failed write left the link open")
	}
	never := make(chan time.Time)
	if !l.awaitFlushed(never) {
		t.Fatal("awaitFlushed waits on a dead link")
	}
	l.shutdown()
	l.shutdown()
	if drops := counters.queueDrops.Load(); drops != 1 {
		t.Fatalf("%d drops counted, want 1", drops)
	}
}
