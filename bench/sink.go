package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/transport"
	"cloudfog/internal/virtualworld"
)

// replayBatches is how many of the latest update batches the sink keeps
// for the layer pass to replay.
const replayBatches = 200

// sink is a benchmark-owned supernode that streams no video: it registers
// with an empty StreamAddr, acks heartbeats, and applies every full-world
// MsgUpdateBatch to its own replica. It is how the benchmark sees, from
// outside the cloud, which tick applied a probe's action (t1), how many
// update bytes one supernode costs the cloud, and whether a replica fed by
// the stream converges on the authoritative world.
type sink struct {
	conn net.Conn

	mu         sync.Mutex
	replica    *virtualworld.Replica
	updateBits int64    // counted as the cloud counts UpdateBits: (payload + header) × 8
	batches    [][]byte // ring of the latest raw MsgUpdateBatch payloads
	nBatches   int
	decodeErrs int

	probes map[int]*matcher // by player ID
	wg     sync.WaitGroup
}

// startSink registers with the cloud. It is called after every player has
// attached, so no PlayerClient is ever offered the sink as a candidate.
func startSink(cloudAddr string, probes map[int]*matcher) (*sink, error) {
	conn, err := transport.TCP{}.Dial(cloudAddr)
	if err != nil {
		return nil, fmt.Errorf("sink dial cloud: %w", err)
	}
	conn.SetDeadline(time.Now().Add(transport.DefaultHandshakeTimeout))
	hello := protocol.SupernodeHello{Name: "bench-sink"}
	if err := protocol.WriteMessage(conn, protocol.MsgSupernodeHello, hello.Marshal()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("sink register: %w", err)
	}
	typ, payload, err := protocol.ReadMessage(conn)
	if err != nil || typ != protocol.MsgSupernodeWelcome {
		conn.Close()
		return nil, fmt.Errorf("sink welcome: %v %w", typ, err)
	}
	welcome, err := protocol.UnmarshalSupernodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("sink welcome decode: %w", err)
	}
	conn.SetDeadline(time.Time{})
	k := &sink{conn: conn, probes: probes, batches: make([][]byte, replayBatches)}
	k.replica = virtualworld.NewReplica(welcome.Snapshot.Width, welcome.Snapshot.Height)
	k.replica.Seed(welcome.Snapshot)
	k.wg.Add(1)
	go k.readLoop()
	return k, nil
}

func (k *sink) readLoop() {
	defer k.wg.Done()
	fr := protocol.NewFrameReader(k.conn)
	var batch protocol.UpdateBatch
	var ackBuf []byte
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		switch typ {
		case protocol.MsgUpdateBatch:
			at := time.Now()
			derr := protocol.DecodeUpdateBatch(payload, &batch)
			k.mu.Lock()
			k.updateBits += int64(len(payload)+protocol.HeaderLen) * 8
			if derr != nil {
				k.decodeErrs++
				k.mu.Unlock()
				continue
			}
			slot := k.nBatches % len(k.batches)
			k.batches[slot] = append(k.batches[slot][:0], payload...)
			k.nBatches++
			k.replica.Apply(batch.Tick, batch.Deltas)
			k.mu.Unlock()
			dispatch(k.probes, batch.Deltas, batch.Tick, at)
		case protocol.MsgHeartbeat:
			hb, herr := protocol.UnmarshalHeartbeat(payload)
			if herr != nil {
				continue
			}
			k.mu.Lock()
			ack := protocol.HeartbeatAck{Seq: hb.Seq, ReplicaTick: k.replica.Tick()}
			k.mu.Unlock()
			ackBuf, err = protocol.AppendMessage(ackBuf[:0], protocol.MsgHeartbeatAck, &ack)
			if err != nil {
				continue
			}
			k.conn.SetWriteDeadline(time.Now().Add(transport.DefaultWriteTimeout))
			if _, err := k.conn.Write(ackBuf); err != nil {
				return
			}
		}
	}
}

// dispatch tells each probe's matcher which state tag its avatar carries
// in the deltas of one tick.
func dispatch(probes map[int]*matcher, deltas []virtualworld.Delta, tick uint64, at time.Time) {
	for _, d := range deltas {
		if d.Removed || d.Entity.Kind != virtualworld.KindAvatar {
			continue
		}
		if m := probes[d.Entity.Owner]; m != nil {
			m.update(d.Entity.State, tick, at)
		}
	}
}

// bits returns the update-stream bits received so far.
func (k *sink) bits() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.updateBits
}

// replay returns the replica's current snapshot and copies of the latest
// update batches, oldest first — the layer pass's inputs.
func (k *sink) replay() (virtualworld.Snapshot, [][]byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := k.nBatches
	if n > len(k.batches) {
		n = len(k.batches)
	}
	out := make([][]byte, 0, n)
	for i := k.nBatches - n; i < k.nBatches; i++ {
		out = append(out, append([]byte(nil), k.batches[i%len(k.batches)]...))
	}
	return k.replica.Snapshot(), out
}

func (k *sink) close() {
	k.conn.Close()
	k.wg.Wait()
}
