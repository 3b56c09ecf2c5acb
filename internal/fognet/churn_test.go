package fognet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/virtualworld"
)

// TestSessionDeltaFanoutUnderChurn joins and drops players as fast as the
// cloud admits them while a 1 ms tick loop fans the membership deltas out,
// and checks the stream one supernode receives against what the world did:
// every batch decodes, every join shows up as that player's spawn, every
// departure as that avatar's removal, and a replica fed nothing but the
// welcome snapshot and the batches ends up equal to the authoritative
// world. The fan-out used to read a slice aliasing CloudServer.sessionDeltas
// after dropping the lock, so a join landing mid-fan-out overwrote a delta
// in flight — a data race, and a spawn or removal the supernode never saw.
func TestSessionDeltaFanoutUnderChurn(t *testing.T) {
	const (
		churners     = 4
		joinsEach    = 40
		firstPlayer  = 1000
		totalPlayers = churners * joinsEach
	)
	cloud, err := NewCloudServer(CloudConfig{
		TickInterval:      time.Millisecond,
		NPCs:              4,
		HeartbeatInterval: time.Minute, // the raw supernode below never acks
		SendQueueLen:      1 << 14,     // a dropped batch would look like a lost delta
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	// A supernode at the protocol level, so every batch passes through
	// this test's hands.
	sn, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	hello := protocol.SupernodeHello{Name: "sink", Capacity: 1, StreamAddr: "127.0.0.1:1"}
	if err := protocol.WriteMessage(sn, protocol.MsgSupernodeHello, hello.Marshal()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := protocol.ReadMessage(sn)
	if err != nil || typ != protocol.MsgSupernodeWelcome {
		t.Fatalf("welcome: type %d, err %v", typ, err)
	}
	welcome, err := protocol.UnmarshalSupernodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		replica = virtualworld.NewReplica(welcome.Snapshot.Width, welcome.Snapshot.Height)
		spawned = map[int]virtualworld.EntityID{} // owner → avatar, from spawn deltas
		removed = map[virtualworld.EntityID]bool{}
	)
	replica.Seed(welcome.Snapshot)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		fr := protocol.NewFrameReader(sn)
		var batch protocol.UpdateBatch
		var lastTick uint64
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return // closed by the test
			}
			if typ != protocol.MsgUpdateBatch {
				continue
			}
			if err := protocol.DecodeUpdateBatch(payload, &batch); err != nil {
				t.Errorf("batch after tick %d does not decode: %v", lastTick, err)
				return
			}
			if batch.Tick <= lastTick {
				t.Errorf("batch tick %d after %d", batch.Tick, lastTick)
			}
			lastTick = batch.Tick
			mu.Lock()
			for _, d := range batch.Deltas {
				switch {
				case d.Removed:
					removed[d.ID] = true
				case d.ID != d.Entity.ID:
					t.Errorf("tick %d: delta for %d carries entity %d", batch.Tick, d.ID, d.Entity.ID)
				case d.Entity.Kind == virtualworld.KindAvatar:
					spawned[d.Entity.Owner] = d.ID
				}
			}
			replica.Apply(batch.Tick, batch.Deltas)
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < joinsEach; i++ {
				id := int32(firstPlayer + c*joinsEach + i)
				if err := joinAndLeave(cloud.Addr(), id); err != nil {
					t.Errorf("player %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	waitFor(t, 5*time.Second, "every departure processed", func() bool { return cloud.Stats().Players == 0 })
	waitFor(t, 5*time.Second, "every spawn and removal delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(spawned) < totalPlayers {
			return false
		}
		for _, id := range spawned {
			if !removed[id] {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "replica equals the authoritative world", func() bool {
		cloud.mu.Lock()
		want := cloud.world.Snapshot()
		cloud.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		return replica.Snapshot().Equal(want)
	})
	if drops := cloud.Stats().Resilience.SendQueueDrops; drops != 0 {
		t.Fatalf("%d batches dropped at the send queue; the test's queue is too short", drops)
	}
	sn.Close()
	<-readerDone
}

// joinAndLeave admits a player over a raw control connection and hangs up
// as soon as the cloud has answered.
func joinAndLeave(addr string, id int32) error {
	join := protocol.PlayerJoin{PlayerID: id, GameID: 1, SpawnX: float64(id % 900), SpawnY: float64(id % 700)}
	conn, typ, err := firstFrame(addr, protocol.MsgPlayerJoin, join.Marshal())
	if err != nil {
		return err
	}
	conn.Close()
	if typ != protocol.MsgJoinReply {
		return fmt.Errorf("reply type %d", typ)
	}
	return nil
}
