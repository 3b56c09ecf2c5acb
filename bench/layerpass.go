package main

import (
	"bytes"
	"fmt"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// layerCalls is how many timed calls stand behind each call-cost metric.
const layerCalls = 200

// medianUs times n calls of f one by one and returns the median in µs.
func medianUs(n int, f func(i int)) float64 {
	var d dist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		d.add(float64(time.Since(t0)) / float64(time.Microsecond))
	}
	return d.median()
}

// medianNs is medianUs for calls too short to time one by one: each sample
// is the mean of a batch of 1000.
func medianNs(n int, f func(i int)) float64 {
	const batch = 1000
	var d dist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			f(i*batch + j)
		}
		d.add(float64(time.Since(t0)) / batch)
	}
	return d.median()
}

// layerPass replays the workload's own inputs — the sink replica's final
// snapshot, its latest update batches, the probe's viewport and quality
// level — single-threaded through each layer's public function, and
// reports the median cost of one call. It runs after the window, so it
// perturbs nothing it measures; what it cannot see is contention, which is
// why its sum is printed against the CPU the window really used.
func layerPass(res *result, snap virtualworld.Snapshot, raw [][]byte, viewer int, level game.QualityLevel, supernodes int, window float64) {
	if len(raw) == 0 || len(snap.Entities) == 0 {
		res.problem("layer pass: nothing to replay (%d batches, %d entities)", len(raw), len(snap.Entities))
		return
	}
	m := res.Metrics

	// protocol: the update stream's codec, fog-side decode into a reused
	// batch and cloud-side append into a reused buffer.
	var scratch protocol.UpdateBatch
	m["protocol.update_decode_us"] = medianUs(layerCalls, func(i int) {
		_ = protocol.DecodeUpdateBatch(raw[i%len(raw)], &scratch) // these bytes decoded once already, in the sink
	})
	batches := make([]protocol.UpdateBatch, len(raw))
	for i := range raw {
		if err := protocol.DecodeUpdateBatch(raw[i], &batches[i]); err != nil {
			res.problem("layer pass: batch %d: %v", i, err)
			return
		}
	}
	var buf []byte
	m["protocol.update_encode_us"] = medianUs(layerCalls, func(i int) {
		buf = batches[i%len(batches)].AppendTo(buf[:0])
	})

	// virtualworld: a replica that has seen none of the batches yet, so
	// every delta takes the apply path and not the stale-discard one.
	base := virtualworld.Snapshot{Tick: 0, Width: snap.Width, Height: snap.Height,
		Entities: append([]virtualworld.Entity(nil), snap.Entities...)}
	var maxID virtualworld.EntityID
	for i := range base.Entities {
		base.Entities[i].Version = 0
		if base.Entities[i].ID > maxID {
			maxID = base.Entities[i].ID
		}
	}
	rep := virtualworld.NewReplica(snap.Width, snap.Height)
	m["virtualworld.replica_apply_us"] = medianUs(layerCalls, func(i int) {
		if i%len(batches) == 0 {
			rep.Seed(base)
		}
		b := &batches[i%len(batches)]
		rep.Apply(b.Tick, b.Deltas)
	})
	rep.Seed(snap)
	m["virtualworld.snapshot_us"] = medianUs(layerCalls, func(int) { _ = rep.Snapshot() })

	world := virtualworld.Restore(snap, maxID+1)
	var actions []virtualworld.Action
	for _, e := range snap.Entities {
		if e.Kind == virtualworld.KindAvatar {
			actions = append(actions, virtualworld.Action{Player: e.Owner, Kind: virtualworld.ActMove,
				TargetX: snap.Width - e.X, TargetY: snap.Height - e.Y})
		}
	}
	m["virtualworld.step_us"] = medianUs(layerCalls, func(int) { _ = world.Step(actions) })

	// render → videocodec → protocol framing, on the frame sequence the
	// replayed batches produce in the probe's viewport.
	rep.Seed(base)
	renderer := render.NewRenderer(render.ResolutionForLevel(int(level)))
	encoder := videocodec.NewEncoder(game.MustQuality(level).BitrateKbps)
	frame := render.NewFrame(renderer.Resolution())
	var ef, rx videocodec.EncodedFrame
	var dec videocodec.Decoder
	var out render.Frame
	var wire []byte
	var renderUs, encodeUs, appendUs, readUs, decodeUs dist
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	for i := 0; i < layerCalls; i++ {
		b := &batches[i%len(batches)]
		rep.Apply(b.Tick, b.Deltas)
		s := rep.Snapshot()
		vp := render.ViewportFor(s, viewer)

		t0 := time.Now()
		renderer.RenderInto(s, vp, frame)
		renderUs.add(us(t0))

		t0 = time.Now()
		encoder.EncodeInto(frame, &ef)
		encodeUs.add(us(t0))

		t0 = time.Now()
		var err error
		wire, err = protocol.AppendMessage(wire[:0], protocol.MsgVideoFrame, &ef)
		appendUs.add(us(t0))
		if err != nil {
			res.problem("layer pass: frame %d: %v", i, err)
			return
		}

		fr := protocol.NewFrameReader(bytes.NewReader(wire))
		t0 = time.Now()
		_, payload, err := fr.Next()
		readUs.add(us(t0))
		if err != nil {
			res.problem("layer pass: frame %d: %v", i, err)
			return
		}

		t0 = time.Now()
		err = videocodec.UnmarshalFrameInto(payload, &rx)
		if err == nil {
			err = dec.DecodeInto(&rx, &out)
		}
		decodeUs.add(us(t0))
		if err != nil {
			res.problem("layer pass: frame %d: %v", i, err)
			return
		}
	}
	m["render.render_us"] = renderUs.median()
	m["videocodec.encode_us"] = encodeUs.median()
	m["videocodec.decode_us"] = decodeUs.median()
	m["protocol.frame_append_us"] = appendUs.median()
	m["protocol.frame_read_us"] = readUs.median()

	// protocol: one legacy handshake message out and back, JoinReply-sized.
	cands := make([]protocol.CandidateInfo, supernodes)
	sel := make([]selection.Candidate, supernodes)
	for i := range cands {
		cands[i] = protocol.CandidateInfo{Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Capacity: 16, MeasuredRTTMs: -1, Score: 0.5}
	}
	reply := protocol.JoinReply{OK: true, Epoch: 1, Tick: snap.Tick, Candidates: cands, CloudStreamAddr: "127.0.0.1:39999"}
	var pipe bytes.Buffer
	m["protocol.handshake_roundtrip_us"] = medianUs(layerCalls, func(int) {
		pipe.Reset()
		_ = protocol.WriteMessage(&pipe, protocol.MsgJoinReply, reply.Marshal()) // a bytes.Buffer write cannot fail
		_, payload, err := protocol.ReadMessage(&pipe)
		if err == nil {
			_, err = protocol.UnmarshalJoinReply(payload)
		}
		if err != nil {
			res.problem("layer pass: handshake round trip: %v", err)
		}
	})

	// selection: ranking a ladder of this workload's supernode count.
	r := rng.New(1)
	ranker := selection.PolicyRanker{Policy: selection.PolicyReputation}
	m["selection.rank_us"] = medianUs(layerCalls, func(int) {
		for i, c := range cands {
			sel[i] = selection.Candidate{ID: i, Addr: c.Addr, Capacity: int(c.Capacity), RTTMs: -1, Score: c.Score}
		}
		ranker.Rank(sel, 0, r)
	})

	// transport: the UDP video path's per-datagram work.
	var hdrBuf []byte
	m["transport.dgram_header_ns"] = medianNs(layerCalls, func(i int) {
		hdrBuf = transport.Header{Kind: transport.DgramFrame, Token: 7, Epoch: 1, Seq: uint64(i), Tick: uint64(i)}.AppendTo(hdrBuf[:0])
	})
	var tracker transport.RecvTracker
	m["transport.track_ns"] = medianNs(layerCalls, func(i int) { tracker.Track(1, uint64(i)) })

	// Busy time per layer = call cost × op count over the window; their sum
	// against the CPU the window used is the share the pass accounts for.
	ticks, fogFrames, decoded := m["fognet.cloud.ticks"], m["fognet.fog.frames"], m["fognet.player.frames"]
	busy := []struct {
		layer string
		sec   float64
	}{
		{"virtualworld", (m["virtualworld.step_us"]*ticks + m["virtualworld.snapshot_us"]*fogFrames +
			m["virtualworld.replica_apply_us"]*ticks*float64(supernodes)) / 1e6},
		{"render", m["render.render_us"] * fogFrames / 1e6},
		{"videocodec", (m["videocodec.encode_us"]*fogFrames + m["videocodec.decode_us"]*decoded) / 1e6},
		{"protocol", (m["protocol.update_encode_us"]*ticks + m["protocol.update_decode_us"]*ticks*float64(supernodes) +
			m["protocol.frame_append_us"]*fogFrames + m["protocol.frame_read_us"]*decoded) / 1e6},
	}
	used := m["process.cpu_cores_used"] * window
	var sum float64
	for _, b := range busy {
		sum += b.sec
		res.Report = append(res.Report, fmt.Sprintf("busy %-14s %7.3f s  (%4.1f %% of the window's CPU)", b.layer, b.sec, 100*b.sec/used))
	}
	res.Report = append(res.Report, fmt.Sprintf("accounted share: %.1f %% of %.2f CPU-s (rest: syscalls, scheduler, GC, the benchmark's own sessions)", 100*sum/used, used))
}
