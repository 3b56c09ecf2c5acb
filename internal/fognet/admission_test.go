package fognet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/faultnet"
	"cloudfog/internal/protocol"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// firstFrame opens a raw control connection, sends one admission request
// and returns the type of the first frame the cloud answers with.
func firstFrame(addr string, typ protocol.MsgType, payload []byte) (net.Conn, protocol.MsgType, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, 0, err
	}
	if err := protocol.WriteMessage(conn, typ, payload); err != nil {
		conn.Close()
		return nil, 0, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, _, err := protocol.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, got, nil
}

// TestStalledPlayersDoNotDelaySupernodeAdmission: players whose control
// connections stopped reading must cost a newly admitted supernode nothing.
// Admission pushes the new ladder to every player; when that push was a
// synchronous write per player ahead of starting the supernode's writer,
// three stalled players held the fog's first heartbeat back by three
// WriteTimeouts while its queue overflowed.
func TestStalledPlayersDoNotDelaySupernodeAdmission(t *testing.T) {
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 22})
	cloud, err := NewCloudServer(CloudConfig{
		NPCs:              4,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   1 << 20, // eviction is not under test
		WriteTimeout:      500 * time.Millisecond,
		WrapConn:          func(c net.Conn) net.Conn { return inj.WrapConn(c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	for id := int32(1); id <= 3; id++ {
		join := protocol.PlayerJoin{PlayerID: id, GameID: 1, SpawnX: 100, SpawnY: 100}
		conn, typ, err := firstFrame(cloud.Addr(), protocol.MsgPlayerJoin, join.Marshal())
		if err != nil || typ != protocol.MsgJoinReply {
			t.Fatalf("join %d: first frame %v, err %v", id, typ, err)
		}
		defer conn.Close()
	}
	// Freeze the three accepted control connections; connections accepted
	// from here on start healthy.
	inj.SetMode(faultnet.Stall)
	drops0 := cloud.Stats().Resilience.SendQueueDrops

	fog, err := NewFogNode(FogConfig{Name: "fog-late", CloudAddr: cloud.Addr(), Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	admitted := time.Now()
	waitFor(t, 5*time.Second, "first heartbeat ack", func() bool {
		return cloud.Stats().Resilience.HeartbeatAcks > 0
	})
	if waited := time.Since(admitted); waited > 300*time.Millisecond {
		t.Errorf("first heartbeat ack %v after admission; the stalled players were waited for", waited)
	}
	if drops := cloud.Stats().Resilience.SendQueueDrops - drops0; drops != 0 {
		t.Errorf("%d messages dropped on the new supernode's link", drops)
	}
}

// TestAdmissionReplyIsFirstFrame: whatever the cloud pushes concurrently,
// the first frame a joining or resuming player reads is its reply. A
// player used to become visible to broadcastCandidates before its reply was
// written, and a push that won the race failed the join.
func TestAdmissionReplyIsFirstFrame(t *testing.T) {
	const (
		joins       = 2000
		resumes     = 200
		firstResume = 100000
		workers     = 4
	)
	// The cloud is restored from a checkpoint holding the sessions that
	// will resume, as a promoted standby would be.
	w := virtualworld.New(virtualworld.DefaultWidth, virtualworld.DefaultHeight)
	st := checkpoint.State{Epoch: 1, RNG: rng.New(1).State()}
	for i := 0; i < resumes; i++ {
		w.SpawnAvatar(firstResume+i, 50, 50)
		st.Sessions = append(st.Sessions, int32(firstResume+i))
	}
	w.SnapshotInto(&st.World)
	st.NextID = w.NextID()
	reputation.NewGlobalBook(reputation.DefaultLambda).StateInto(&st.Book)
	st.Canonicalize()
	cloud, err := NewCloudServer(CloudConfig{Epoch: 2, Restore: &st, HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	stop := make(chan struct{})
	var pusher sync.WaitGroup
	pusher.Add(1)
	go func() {
		defer pusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cloud.broadcastCandidates()
			}
		}
	}()

	var next atomic.Int32
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= joins+resumes {
					errs <- nil
					return
				}
				typ, want := protocol.MsgPlayerJoin, protocol.MsgJoinReply
				payload := protocol.PlayerJoin{PlayerID: int32(i + 1), GameID: 1, SpawnX: 10, SpawnY: 10}.Marshal()
				if i >= joins {
					typ, want = protocol.MsgResume, protocol.MsgResumeReply
					payload = protocol.Resume{Kind: protocol.ResumePlayer,
						PlayerID: int32(firstResume + i - joins), Epoch: 1}.Marshal()
				}
				conn, got, err := firstFrame(cloud.Addr(), typ, payload)
				if err == nil {
					conn.Close()
					if got != want {
						err = fmt.Errorf("admission %d: first frame is a %v, want the %v", i, got, want)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for wk := 0; wk < workers; wk++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	pusher.Wait()
	if got := cloud.Stats().Resilience.ResumedPlayers; got != resumes {
		t.Errorf("%d players resumed, want %d", got, resumes)
	}
}
