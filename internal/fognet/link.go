package fognet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/protocol"
)

// The send rule (DESIGN.md §8): after admission the cloud pushes bytes to a
// peer — supernode, standby or player — only through that peer's link. A
// link is a bounded queue and one writer goroutine that coalesces whatever
// is queued into a single deadlined Write; a full queue drops and counts
// instead of blocking. Peers are contributed desktops and home players
// (§3.2.2) that may stop reading at any time, and this file is the whole of
// what the cloud does about it. Two invariants hold, and link_test.go and
// admission_test.go test them:
//
//  1. The admission reply is the first frame a peer reads. A link becomes
//     reachable by other goroutines the moment it is installed under the
//     server mutex, so the reply is either enqueued inside that critical
//     section (the queue is empty: player replies, the standby's seeding
//     checkpoint) or written directly before start, while everything the
//     tick loop enqueues meanwhile waits in the queue (the supernode
//     welcome, whose megabyte snapshot must not be encoded under the
//     mutex).
//  2. Nothing a handler does for one peer waits on another peer's socket:
//     handlers and loops call enqueue, which never blocks; only a link's
//     own writer calls Write on its connection.

// sharedPayload is a reference-counted pooled payload fanned out to many
// send queues at once (the tick's update batch, the heartbeat ping, a
// candidate push). The encode buffer returns to the protocol pool only
// when the last writer has flushed it — the pool-lifecycle rule of
// DESIGN.md §10. A reference enqueued on a link whose writer has already
// exited strands the buffer for the GC; the pool never sees a buffer that
// anyone might still read.
type sharedPayload struct {
	buf  *protocol.Buffer
	refs atomic.Int32
}

var sharedPayloadPool = sync.Pool{New: func() any { return &sharedPayload{} }}

// newSharedPayload takes a pooled buffer and arms it for refs readers.
// Pool refills amortize to zero in steady state.
func newSharedPayload(refs int) *sharedPayload {
	sp := sharedPayloadPool.Get().(*sharedPayload)
	sp.buf = protocol.GetBuffer()
	sp.refs.Store(int32(refs))
	return sp
}

// release drops one reference; the last one returns both the buffer and
// the wrapper to their pools.
func (sp *sharedPayload) release() {
	if sp == nil {
		return
	}
	if sp.refs.Add(-1) == 0 {
		protocol.PutBuffer(sp.buf)
		sp.buf = nil
		sharedPayloadPool.Put(sp)
	}
}

// outMsg is one queued message. payload aliases shared.buf.B when shared
// is non-nil; the link releases shared exactly once, after the payload has
// been flushed or dropped.
type outMsg struct {
	typ     protocol.MsgType
	payload []byte
	shared  *sharedPayload
}

// linkCounters are the egress counters all links of one server share. They
// live outside the server mutex: the writers and the non-blocking enqueue
// bump them on every tick fan-out, and taking the mutex there would make
// the writers contend with the tick loop itself.
type linkCounters struct {
	// updateBits is the update-stream egress flushed (MsgUpdateBatch and
	// MsgCellBatch frames, headers included).
	updateBits atomic.Int64
	// queueDrops counts messages a full queue refused.
	queueDrops atomic.Int64
}

// link is the cloud's sending half of one admitted connection.
type link struct {
	conn         net.Conn
	writeTimeout time.Duration
	counters     *linkCounters
	sendQ        chan outMsg
	done         chan struct{}
	stopOnce     sync.Once
	// inflight counts the messages enqueue accepted that the writer has
	// not yet flushed: queued, or already drained and inside a Write.
	// idle gets a token each time the count returns to zero.
	inflight atomic.Int32
	idle     chan struct{}
}

// newLink is the one constructor. The writer is not running yet: enqueue
// works at once, and start is called right after the admission reply.
func newLink(conn net.Conn, queueLen int, writeTimeout time.Duration, counters *linkCounters) *link {
	return &link{
		conn:         conn,
		writeTimeout: writeTimeout,
		counters:     counters,
		sendQ:        make(chan outMsg, queueLen),
		done:         make(chan struct{}),
		idle:         make(chan struct{}, 1),
	}
}

// start runs the link's writer, which exits on shutdown or on the first
// failed write; wg is how the server waits for it.
func (l *link) start(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.writer()
	}()
}

// enqueue offers a message to the bounded send queue without ever
// blocking; a full queue drops (and counts) the message, releasing its
// shared-payload reference.
func (l *link) enqueue(m outMsg) bool {
	l.inflight.Add(1)
	select {
	case l.sendQ <- m:
		return true
	default:
		l.settle(1)
		m.shared.release()
		l.counters.queueDrops.Add(1)
		return false
	}
}

// writer is the single writer of the connection: it sleeps until something
// is queued and hands it to flushQueued. The first failure shuts the link
// down, which the peer's read loop observes as a closed connection and
// unregisters.
func (l *link) writer() {
	defer l.releaseQueued()
	var pending []outMsg // reused drain list
	for {
		select {
		case <-l.done:
			return
		case m := <-l.sendQ:
			var err error
			if pending, err = l.flushQueued(append(pending[:0], m)); err != nil {
				l.shutdown()
				return
			}
		}
	}
}

// releaseQueued drops, unsent, whatever is still queued when the writer
// exits.
func (l *link) releaseQueued() {
	for {
		select {
		case m := <-l.sendQ:
			m.shared.release()
		default:
			return
		}
	}
}

// flushQueued is one wake-up of the writer, and it coalesces: it drains
// everything queued behind pending, appends each message's frame into one
// pooled buffer, and flushes it with a single deadlined Write — a peer
// that fell a few messages behind costs one syscall to catch up, not one
// per message. It returns the emptied list for reuse.
func (l *link) flushQueued(pending []outMsg) ([]outMsg, error) {
drain:
	for {
		select {
		case m := <-l.sendQ:
			pending = append(pending, m)
		default:
			break drain
		}
	}
	buf := protocol.GetBuffer()
	var batchBits int64
	var err error
	for _, m := range pending {
		if buf.B, err = protocol.AppendFrame(buf.B, m.typ, m.payload); err != nil {
			break
		}
		if m.typ == protocol.MsgUpdateBatch || m.typ == protocol.MsgCellBatch {
			batchBits += int64(len(m.payload)+protocol.HeaderLen) * 8
		}
	}
	if err == nil {
		err = writeWithin(l.conn, l.writeTimeout, buf.B)
	}
	// Flush (or failure) done: drop the shared-payload references,
	// then the scratch buffer.
	for i := range pending {
		pending[i].shared.release()
		pending[i] = outMsg{}
	}
	protocol.PutBuffer(buf)
	if err == nil {
		l.counters.updateBits.Add(batchBits)
		l.settle(len(pending))
	}
	return pending[:0], err
}

// settle retires n messages that enqueue counted: flushed by the writer,
// or refused by a full queue.
func (l *link) settle(n int) {
	if l.inflight.Add(-int32(n)) == 0 {
		select {
		case l.idle <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// awaitFlushed blocks until every message enqueue accepted has been
// written or the link has died, and reports false if giveUp fires first.
// An empty queue is not a flushed one — the writer moves messages out of
// it before the Write that may block — so the wait is on inflight.
func (l *link) awaitFlushed(giveUp <-chan time.Time) bool {
	for l.inflight.Load() > 0 {
		select {
		case <-l.idle:
		case <-l.done:
			return true
		case <-giveUp:
			return false
		}
	}
	return true
}

// shutdown stops the writer and closes the connection; safe to call more
// than once.
func (l *link) shutdown() {
	l.stopOnce.Do(func() { close(l.done) })
	l.conn.Close()
}
