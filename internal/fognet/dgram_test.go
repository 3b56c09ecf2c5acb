package fognet

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"cloudfog/internal/adaptation"
	"cloudfog/internal/faultnet"
	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
)

// startDgramFog creates a fog node with the UDP video path enabled,
// optionally behind a faultnet datagram wrapper.
func startDgramFog(t *testing.T, cloud *CloudServer, name string, wrap transport.WrapDatagramFunc) *FogNode {
	t.Helper()
	fog, err := NewFogNode(FogConfig{
		Name:          name,
		CloudAddr:     cloud.Addr(),
		Capacity:      4,
		FrameInterval: 10 * time.Millisecond,
		Datagram:      true,
		WrapDatagram:  wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })
	return fog
}

func TestDatagramVideoEndToEnd(t *testing.T) {
	cloud := startCloud(t)
	fog := startDgramFog(t, cloud, "fog-1", nil)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       31,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Datagram:       true,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	// The hello must land and the frames must actually ride UDP:
	// session counted on both ends, datagram frames flowing, and the
	// decoded stream depicting a recent world tick — proof the cloud →
	// fog → UDP → decoder loop closed.
	waitFor(t, 8*time.Second, "datagram video", func() bool {
		s := player.Stats()
		return s.DatagramSessions >= 1 && s.DatagramFrames >= 20 && s.LastTick > 0
	})
	s := player.Stats()
	if s.DecodeErrors > s.Frames/10 {
		t.Errorf("decode errors over UDP: %d of %d frames", s.DecodeErrors, s.Frames)
	}
	// The fog counts a frame after its write returns, by which time the
	// player may have counted it already: its twentieth can be a moment
	// behind the player's.
	waitFor(t, 2*time.Second, "fog datagram stats", func() bool {
		fs := fog.Stats()
		return fs.DatagramSessions >= 1 && fs.DatagramHellos >= 1 && fs.DatagramFrames >= 20
	})
	// Control stays on TCP: the goodbye must still tear the session down
	// cleanly (the fog sees the Bye on the stream connection and drops
	// the datagram session with it).
	player.Close()
	waitFor(t, 2*time.Second, "session teardown", func() bool {
		return fog.Stats().Attached == 0
	})
}

func TestDatagramRefusedFallsBackToTCP(t *testing.T) {
	cloud := startCloud(t)
	// This fog never opened a UDP socket: its attach reply grants nothing
	// and the session must keep streaming over TCP as if nothing happened.
	startFog(t, cloud, "fog-1", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       32,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Datagram:       true,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 8*time.Second, "TCP frames after refusal", func() bool {
		s := player.Stats()
		return s.Frames >= 20 && s.DatagramFallbacks >= 1
	})
	s := player.Stats()
	if s.DatagramSessions != 0 || s.DatagramFrames != 0 {
		t.Errorf("a session without a grant still delivered datagrams: %+v", s)
	}
}

func TestDatagramCloudFallbackStaysTCP(t *testing.T) {
	cloud := startCloud(t)
	// No supernodes at all: the player lands on the cloud's own stream,
	// which grants no datagram path — no hello is even sent.
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       33,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Datagram:       true,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 8*time.Second, "cloud fallback frames", func() bool {
		return player.Stats().Frames >= 10
	})
	s := player.Stats()
	if s.FallbackTransitions < 1 {
		t.Errorf("expected a cloud fallback, got %+v", s)
	}
	if s.DatagramSessions != 0 || s.DatagramFrames != 0 {
		t.Errorf("cloud stream upgraded to datagrams: %+v", s)
	}
}

// TestDatagramChaosStaleNeverDelivered runs the UDP video path through a
// faultnet profile that drops, reorders, and duplicates datagrams. The
// receiver's ordering discipline must hold: late and duplicated frames
// are dropped at the tracker (DatagramStale / DatagramDuplicates), every
// reordered frame is a dropped frame (Reordered ⊆ Stale), and the
// decoded stream stays clean — the decoder only ever sees a frame whose
// reference it decoded too (the gap rule, TestDatagramGapRule), so chaos
// shows up as skipped frames, not corruption and not decode errors.
func TestDatagramChaosStaleNeverDelivered(t *testing.T) {
	in := faultnet.NewInjector(faultnet.Profile{
		Seed:                11,
		DatagramDropRate:    0.10,
		DatagramReorderRate: 0.15,
		DatagramDupRate:     0.05,
	})
	cloud := startCloud(t)
	startDgramFog(t, cloud, "fog-1", func(dc transport.DatagramConn) transport.DatagramConn {
		return in.WrapPacketConn(dc)
	})

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       34,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Datagram:       true,
		Adapt:          true,
		Seed:           6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 10*time.Second, "chaos datagram stream", func() bool {
		s := player.Stats()
		return s.DatagramFrames >= 60 && s.DatagramStale+s.DatagramDuplicates >= 1
	})
	s := player.Stats()
	ist := in.Stats()
	if ist.DroppedDatagrams == 0 || ist.ReorderedDatagrams == 0 {
		t.Fatalf("chaos profile did not bite: %+v", ist)
	}
	// Reordered is the subset of stale drops that did arrive late: it can
	// never exceed the stale count, because a reordered frame is always
	// dropped rather than delivered.
	if s.DatagramReordered > s.DatagramStale {
		t.Errorf("reordered (%d) > stale (%d): a late frame was not dropped",
			s.DatagramReordered, s.DatagramStale)
	}
	// In order is not enough — a frame behind a gap is in order and has no
	// reference. The decoder saw only frames that continue the one before
	// them, or keyframes, so nothing it was given failed to decode.
	if s.DecodeErrors != 0 {
		t.Errorf("decode errors under chaos: %d of %d frames", s.DecodeErrors, s.Frames)
	}
	if s.LastTick == 0 {
		t.Error("no world progress decoded under chaos")
	}
}

// TestAdaptationUnderDatagramLossEndToEnd wires the loss signal through
// the whole stack: faultnet drops 20% of the fog's frame datagrams, the
// player's tracker measures it, the controller sheds levels, and the
// smoothed loss feeds the QoE accounting. Healing the link clears the
// signal.
func TestAdaptationUnderDatagramLossEndToEnd(t *testing.T) {
	in := faultnet.NewInjector(faultnet.Profile{Seed: 13, DatagramDropRate: 0.20})
	cloud := startCloud(t)
	startDgramFog(t, cloud, "fog-1", func(dc transport.DatagramConn) transport.DatagramConn {
		return in.WrapPacketConn(dc)
	})

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       35,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Datagram:       true,
		Adapt:          true,
		Game:           game.Catalog()[4],
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	initial := game.Catalog()[4].DefaultQuality
	waitFor(t, 10*time.Second, "loss-driven down-switch", func() bool {
		s := player.Stats()
		return s.DatagramSessions >= 1 && s.Level < initial &&
			s.DatagramLost > 0 && s.LossEWMA > 0
	})
	if in.Stats().DroppedDatagrams == 0 {
		t.Fatal("faultnet dropped nothing; the loss came from elsewhere")
	}

	// Heal the link: the measured loss decays below the down threshold
	// and the stream keeps delivering.
	in.SetProfile(faultnet.Profile{})
	before := player.Stats().Frames
	waitFor(t, 10*time.Second, "loss signal decay after heal", func() bool {
		s := player.Stats()
		return s.LossEWMA < adaptation.DefaultLossDownThreshold && s.Frames > before+20
	})
}

// TestAdaptationStepsDownAndRecoversUnderFaultnetLoss is the
// deterministic half of the loss coverage: real faultnet drops on a
// datagram pipe, a real RecvTracker measuring them, and the §3.3
// controller reacting — no sockets, no timers, no flakes. The controller
// must shed a level while ~15% of datagrams vanish and climb back once
// the link heals.
func TestAdaptationStepsDownAndRecoversUnderFaultnetLoss(t *testing.T) {
	in := faultnet.NewInjector(faultnet.Profile{Seed: 21, DatagramDropRate: 0.15})
	a, b := transport.NewDatagramPipe(256)
	defer a.Close()
	defer b.Close()
	send := in.WrapPacketConn(a)

	ctrl := adaptation.NewController(adaptation.Config{Debounce: 2}, 5)
	var tr transport.RecvTracker
	var hdr transport.Header
	buf := make([]byte, 0, transport.HeaderLen)
	recv := make([]byte, transport.HeaderLen)
	seq := uint64(0)
	to := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 2)

	// window pushes n datagrams through the faulty link, tracks what
	// survives, and returns the measured loss fraction.
	window := func(n int) float64 {
		for i := 0; i < n; i++ {
			seq++
			h := transport.Header{Kind: transport.DgramFrame, Token: 1, Epoch: 1, Seq: seq}
			buf = h.AppendTo(buf[:0])
			if _, err := send.WriteToUDPAddrPort(buf, to); err != nil {
				t.Fatal(err)
			}
		}
		for {
			b.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			n, _, err := b.ReadFromUDPAddrPort(recv)
			if err != nil {
				break // drained
			}
			if _, perr := transport.ParseHeader(recv[:n], &hdr); perr != nil {
				t.Fatal(perr)
			}
			tr.Track(hdr.Epoch, hdr.Seq)
		}
		delivered, lost, _ := tr.TakeWindow()
		if delivered+lost == 0 {
			return 0
		}
		return float64(lost) / float64(delivered+lost)
	}

	// Build a comfortable buffer so the down-pressure is loss-driven.
	now := 0.0
	for i := 0; i < 20; i++ {
		now += 1
		ctrl.NoteLoss(window(50))
		ctrl.Observe(now, ctrl.BitrateKbps()*2)
	}
	if ctrl.Level() >= 5 && !ctrl.Lossy() {
		t.Fatalf("15%% faultnet drop not measured as loss: level=%d", ctrl.Level())
	}
	for i := 0; i < 10 && ctrl.Level() > 3; i++ {
		now += 1
		ctrl.NoteLoss(window(50))
		ctrl.Observe(now, ctrl.BitrateKbps())
	}
	if ctrl.Level() >= 5 {
		t.Fatalf("level = %d, want a down-step under measured loss", ctrl.Level())
	}
	if tr.Stats().Lost == 0 {
		t.Fatal("tracker measured no loss")
	}
	dropped := in.Stats().DroppedDatagrams
	if dropped == 0 {
		t.Fatal("injector dropped nothing")
	}
	// The tracker can only see gaps in front of a later arrival, so its
	// loss count is bounded by what faultnet actually ate.
	if got := tr.Stats().Lost; int64(got) > dropped {
		t.Errorf("tracker lost %d > injector dropped %d", got, dropped)
	}

	// Heal: loss clears and headroom climbs the ladder back.
	in.SetProfile(faultnet.Profile{})
	for i := 0; i < 200 && ctrl.Level() < 5; i++ {
		now += 1
		ctrl.NoteLoss(window(50))
		ctrl.Observe(now, ctrl.BitrateKbps()*3)
	}
	if ctrl.Level() != 5 {
		t.Errorf("level = %d after heal, want 5", ctrl.Level())
	}
	if ctrl.Lossy() {
		t.Error("Lossy() still true after heal")
	}
}

// TestDatagramOversizedFrameIsLost: once the player's hello has landed, a
// frame too large for one datagram is a lost datagram like any other — its
// sequence number spent, so the receiver's tracker counts the gap and the
// gap rule asks for a keyframe — and nothing of it reaches the session's
// TCP connection, which a datagram player no longer reads.
func TestDatagramOversizedFrameIsLost(t *testing.T) {
	fogEnd, playerEnd := transport.NewDatagramPipe(8)
	defer fogEnd.Close()
	defer playerEnd.Close()
	dg := &fogDatagram{pc: fogEnd}
	sess := &dgramSession{dg: dg, token: 7, epoch: 1}
	sess.setRemote(netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 2), dg)
	sf := newStreamFixture(1, sess)
	defer protocol.PutBuffer(sf.fs.out)
	tcp := &countingConn{}
	sf.fs.conn = tcp

	sf.frame(t)
	normal := sf.fs.ef
	sf.fs.ef = videocodec.EncodedFrame{Type: videocodec.PFrame, Width: 288, Height: 216, Quant: 1,
		Data: make([]byte, transport.MaxDatagram)}
	if !sf.fs.send(false, false) {
		t.Fatal("an oversized frame ended the session")
	}
	sf.fs.ef = normal
	sf.frame(t)

	var (
		tr   transport.RecvTracker
		hdr  transport.Header
		seqs []uint64
		buf  = make([]byte, transport.MaxDatagram)
	)
	for {
		playerEnd.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := playerEnd.ReadFromUDPAddrPort(buf)
		if err != nil {
			break // drained
		}
		if _, err := transport.ParseHeader(buf[:n], &hdr); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, hdr.Seq)
		tr.Track(hdr.Epoch, hdr.Seq)
	}
	if !slices.Equal(seqs, []uint64{0, 2}) {
		t.Errorf("received sequence numbers %v, want [0 2]", seqs)
	}
	if lost := tr.Stats().Lost; lost != 1 {
		t.Errorf("tracker counted %d lost, want 1", lost)
	}
	if tcp.writes != 0 {
		t.Errorf("%d writes reached the session's TCP connection, want none", tcp.writes)
	}
}

// countingConn is a session connection that counts the writes made to it,
// and the MsgRateChange frames among them, and swallows everything.
type countingConn struct {
	discardNetConn
	writes, rateChanges int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	if len(b) > 4 && protocol.MsgType(b[4]) == protocol.MsgRateChange {
		c.rateChanges++
	}
	return len(b), nil
}

// TestDatagramGapRule drives the player's datagram receive path — the
// gap rule in front of the decoder — with a scripted loss, no network and
// no clock: ten frames at GOP 6, one datagram dropped. Fresh means newer,
// not next, so the P-frames behind the gap have no reference; they must
// not be shown (decoded, they land on a stale reference, or fail
// ErrNoReference one by one after a lost keyframe at a new resolution).
// Every frame that is shown must equal the sender's
// own reconstruction byte for byte, nothing may count as a decode error,
// and exactly one keyframe request goes out per outage.
func TestDatagramGapRule(t *testing.T) {
	const gop = 6
	small := render.Resolution{Width: 32, Height: 24}
	large := render.Resolution{Width: 48, Height: 36}
	for _, tc := range []struct {
		name string
		// res is the sender's resolution per frame (1-based index i-1); a
		// change restarts the GOP with a fresh encoder, as setLevel does.
		res   func(i int) render.Resolution
		drop  int
		shown []int
	}{
		{
			name:  "P-frame lost mid-GOP",
			res:   func(int) render.Resolution { return small },
			drop:  4, // frames 5, 6 lose their reference; 7 is the next I-frame
			shown: []int{1, 2, 3, 7, 8, 9, 10},
		},
		{
			name: "I-frame lost after a resolution change",
			res: func(i int) render.Resolution {
				if i < 4 {
					return small
				}
				return large
			},
			drop:  4, // the new encoder's I-frame; its GOP rolls over at 10
			shown: []int{1, 2, 3, 10},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				enc    *videocodec.Encoder
				sender videocodec.Decoder // the sender's own reconstruction
				want   render.Frame
				ef     videocodec.EncodedFrame
				conn   countingConn
				p      = &PlayerClient{cfg: PlayerConfig{WriteTimeout: time.Second}}
				st     = videoRecvState{needKey: true} // as runDatagramVideo starts it
				shown  []int
			)
			p.stats.Level = 2
			for i := 1; i <= 10; i++ {
				res := tc.res(i)
				if i == 1 || res != tc.res(i-1) {
					enc = videocodec.NewEncoder(0)
					enc.GOP = gop
				}
				pic := render.NewFrame(res)
				for j := range pic.Pix {
					pic.Pix[j] = byte(j/res.Width*8 + i*3*(j%5))
				}
				pic.Tick = uint64(i)
				enc.EncodeInto(pic, &ef)
				if err := sender.DecodeInto(&ef, &want); err != nil {
					t.Fatalf("frame %d: sender-side decode: %v", i, err)
				}
				if i == tc.drop {
					continue
				}
				before := p.Stats().Frames
				p.recvDatagramFrame(&st, &conn, uint64(i), ef.AppendTo(nil))
				if p.Stats().Frames == before {
					continue
				}
				shown = append(shown, i)
				if !st.frame.Equal(&want) || st.frame.Tick != uint64(i) {
					t.Errorf("frame %d shown differs from the sender's reconstruction", i)
				}
			}
			if !slices.Equal(shown, tc.shown) {
				t.Errorf("shown frames %v, want %v", shown, tc.shown)
			}
			if s := p.Stats(); s.DecodeErrors != 0 || s.DatagramFrames != int64(len(tc.shown)) {
				t.Errorf("decode errors %d, datagram frames %d; want 0 and %d", s.DecodeErrors, s.DatagramFrames, len(tc.shown))
			}
			if conn.rateChanges != 1 {
				t.Errorf("%d keyframe requests, want 1", conn.rateChanges)
			}
		})
	}
}
