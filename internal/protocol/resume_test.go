package protocol

import (
	"testing"

	"cloudfog/internal/virtualworld"
)

func TestStandbyHelloRoundTrip(t *testing.T) {
	m := StandbyHello{Addr: "127.0.0.1:9200"}
	got, err := UnmarshalStandbyHello(m.Marshal())
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
	if _, err := UnmarshalStandbyHello([]byte{0xFF}); err == nil {
		t.Error("garbage standby hello accepted")
	}
}

func TestResumeRoundTrip(t *testing.T) {
	for _, m := range []Resume{
		{Kind: ResumePlayer, PlayerID: 42, Epoch: 3, Tick: 9999},
		{Kind: ResumeSupernode, Epoch: 1, Tick: 17, Name: "fog-2", Capacity: 12, StreamAddr: "127.0.0.1:9001"},
	} {
		got, err := UnmarshalResume(m.Marshal())
		if err != nil || got != m {
			t.Errorf("round trip: %+v -> %+v, %v", m, got, err)
		}
	}
	if _, err := UnmarshalResume([]byte{1, 2}); err == nil {
		t.Error("short resume accepted")
	}
}

func TestResumeReplyRoundTrip(t *testing.T) {
	w := virtualworld.New(200, 200)
	w.SpawnAvatar(4, 10, 10)
	w.SpawnNPC(20, 20)

	sn := ResumeReply{
		OK: true, Discard: true, Epoch: 2, Tick: 555, SupernodeID: 7,
		HasSnapshot: true, Snapshot: w.Snapshot(),
		CloudStreamAddr: "127.0.0.1:9100", StandbyAddr: "127.0.0.1:9200",
	}
	got, err := UnmarshalResumeReply(sn.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || !got.Discard || got.Epoch != 2 || got.Tick != 555 ||
		got.SupernodeID != 7 || !got.HasSnapshot || !got.Snapshot.Equal(sn.Snapshot) ||
		got.Snapshot.Tick != sn.Snapshot.Tick || got.StandbyAddr != sn.StandbyAddr {
		t.Errorf("supernode reply round trip: %+v", got)
	}

	pl := ResumeReply{
		OK: true, Epoch: 2, Tick: 600,
		Candidates: []CandidateInfo{
			{Addr: "a:1", Load: 1, Capacity: 4, MeasuredRTTMs: -1, Score: 0.8},
			{Addr: "b:2"},
		},
		CloudStreamAddr: "127.0.0.1:9100",
	}
	got, err = UnmarshalResumeReply(pl.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || got.HasSnapshot || len(got.Candidates) != 2 ||
		got.Candidates[0] != pl.Candidates[0] || got.CloudStreamAddr != pl.CloudStreamAddr {
		t.Errorf("player reply round trip: %+v", got)
	}

	refuse := ResumeReply{Reason: "unknown session"}
	got, err = UnmarshalResumeReply(refuse.Marshal())
	if err != nil || got.OK || got.Reason != "unknown session" {
		t.Errorf("refusal round trip: %+v, %v", got, err)
	}

	if _, err := UnmarshalResumeReply([]byte{4, 0}); err == nil {
		t.Error("truncated resume reply accepted")
	}
}

// TestEpochStamps pins the failover metadata added to the pre-existing
// messages: epoch/tick on admissions and update batches, standby
// addresses on ladder refreshes and welcomes.
func TestEpochStamps(t *testing.T) {
	jr := JoinReply{OK: true, Epoch: 5, Tick: 1234, CloudStreamAddr: "c:1", StandbyAddr: "s:2"}
	got, err := UnmarshalJoinReply(jr.Marshal())
	if err != nil || got.Epoch != 5 || got.Tick != 1234 || got.StandbyAddr != "s:2" {
		t.Errorf("join reply stamps: %+v, %v", got, err)
	}

	ub := UpdateBatch{Epoch: 9, Tick: 77}
	var gb UpdateBatch
	err = DecodeUpdateBatch(ub.AppendTo(nil), &gb)
	if err != nil || gb.Epoch != 9 || gb.Tick != 77 {
		t.Errorf("update batch stamps: %+v, %v", gb, err)
	}

	sw := SupernodeWelcome{SupernodeID: 3, Epoch: 4, StandbyAddr: "s:9"}
	gw, err := UnmarshalSupernodeWelcome(sw.Marshal())
	if err != nil || gw.Epoch != 4 || gw.StandbyAddr != "s:9" {
		t.Errorf("welcome stamps: %+v, %v", gw, err)
	}

	cu := CandidateUpdate{CloudStreamAddr: "c:1", StandbyAddr: "s:2"}
	gc, err := UnmarshalCandidateUpdate(cu.AppendTo(nil))
	if err != nil || gc.StandbyAddr != "s:2" {
		t.Errorf("candidate update stamps: %+v, %v", gc, err)
	}
}
