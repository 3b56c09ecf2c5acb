package core

import (
	"cloudfog/internal/adaptation"
	"cloudfog/internal/streaming"
	"cloudfog/internal/workload"
)

// playerStore keeps the hot per-cycle player state in parallel slices
// (structure-of-arrays) indexed by the player's dense index. The tick loops
// touch online/src/session for every player every subcycle; packing those
// fields contiguously keeps the scans cache-dense instead of chasing one
// heap object per player, and gives the parallel tick workers plain slices
// to index without sharing Player structs.
//
// A *Player stays the public handle: it carries the cold identity fields
// (endpoint, behavior, reputation book) plus a back-pointer here, so
// existing call sites keep working. The invariant throughout the simulator
// is dense index == Player.ID == player endpoint ID.
type playerStore struct {
	// online reports whether the slot's player is in a session.
	online []bool
	// src is where the player's video comes from (srcNone when offline).
	src []sourceKind
	// supernode is the serving supernode ID when src == srcSupernode.
	supernode []int32
	// cdnServer is the serving CDN server index when src == srcCDN.
	cdnServer []int32
	// dc is the player's nearest datacenter index (static after build).
	dc []int32
	// dcRTT is the round trip to that datacenter, drawn once at build.
	dcRTT []float64
	// route is the path to the current video source, set by join and
	// migrate whenever src changes and read by linkForR.
	route []route
	// session is the player's play schedule for the current cycle.
	session []workload.Session
	// meter accumulates the current session's streaming quality.
	meter []streaming.Meter
	// ctrl is the per-session rate controller, valid while ctrlOn is set.
	// Controllers are stored by value and Reset per session, so steady-state
	// session churn allocates nothing.
	ctrl []adaptation.Controller
	// ctrlOn marks slots whose controller is live for the current session.
	ctrlOn []bool
	// handles maps a dense index back to its Player handle.
	handles []*Player
}

// route memoises the parts of a player's delivery link that depend only on
// the (source, player) endpoint pair. netmodel's path RTT is a pure
// function of the pair, so one draw per session serves every subcycle;
// what changes per subcycle (congestion, the source's per-stream share)
// stays in linkForR.
type route struct {
	oneWayMs    float64
	pathCapKbps float64
}

func newPlayerStore(capacity int) *playerStore {
	return &playerStore{
		online:    make([]bool, 0, capacity),
		src:       make([]sourceKind, 0, capacity),
		supernode: make([]int32, 0, capacity),
		cdnServer: make([]int32, 0, capacity),
		dc:        make([]int32, 0, capacity),
		dcRTT:     make([]float64, 0, capacity),
		route:     make([]route, 0, capacity),
		session:   make([]workload.Session, 0, capacity),
		meter:     make([]streaming.Meter, 0, capacity),
		ctrl:      make([]adaptation.Controller, 0, capacity),
		ctrlOn:    make([]bool, 0, capacity),
		handles:   make([]*Player, 0, capacity),
	}
}

// alloc appends a slot for p and wires the handle's back-pointer. The
// returned index is the player's dense identity; callers must keep p.ID
// equal to it.
func (ps *playerStore) alloc(p *Player) int {
	i := len(ps.handles)
	ps.online = append(ps.online, false)
	ps.src = append(ps.src, srcNone)
	ps.supernode = append(ps.supernode, 0)
	ps.cdnServer = append(ps.cdnServer, 0)
	ps.dc = append(ps.dc, 0)
	ps.dcRTT = append(ps.dcRTT, 0)
	ps.route = append(ps.route, route{})
	ps.session = append(ps.session, workload.Session{})
	ps.meter = append(ps.meter, streaming.Meter{})
	ps.ctrl = append(ps.ctrl, adaptation.Controller{})
	ps.ctrlOn = append(ps.ctrlOn, false)
	ps.handles = append(ps.handles, p)
	p.st = ps
	return i
}
