package fog

import (
	"math"
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
)

func newTestManager(t *testing.T, n int) (*Manager, *netmodel.Model, *rng.Rand) {
	t.Helper()
	model := netmodel.NewModel(netmodel.Params{}, 1)
	m := NewManager(model)
	r := rng.New(2)
	for i := 0; i < n; i++ {
		loc := geo.Point{X: 1000 + float64(i%10)*30, Y: 1000 + float64(i/10)*30}
		ep := netmodel.NewSupernodeEndpoint(100+i, loc, r)
		m.Register(NewSupernode(ep, 3))
	}
	return m, model, r
}

func playerAt(id int, x, y float64, r *rng.Rand) *netmodel.Endpoint {
	return netmodel.NewPlayerEndpoint(id, geo.Point{X: x, Y: y}, r)
}

func TestSupernodeBasics(t *testing.T) {
	r := rng.New(1)
	ep := netmodel.NewSupernodeEndpoint(5, geo.Point{X: 1, Y: 1}, r)
	sn := NewSupernode(ep, 0) // clamped to 1
	if sn.Capacity != 1 {
		t.Errorf("capacity clamp: %d", sn.Capacity)
	}
	sn = NewSupernode(ep, 4)
	if sn.Available() != 4 || sn.Load() != 0 || !sn.Active {
		t.Error("fresh supernode malformed")
	}
	sn.Active = false
	if sn.Available() != 0 {
		t.Error("inactive supernode advertises capacity")
	}
}

func TestPerStreamIndependentOfLoad(t *testing.T) {
	r := rng.New(1)
	ep := netmodel.NewSupernodeEndpoint(5, geo.Point{X: 1, Y: 1}, r)
	sn := NewSupernode(ep, 10)
	before := sn.PerStreamKbps()
	sn.players = append(sn.players, 1, 2)
	if sn.PerStreamKbps() != before {
		t.Error("per-stream share depends on load; slots are provisioned")
	}
	if before != ep.UploadKbps/10 {
		t.Errorf("per-stream = %v, want upload/capacity", before)
	}
	sn.Throttle = 0.5
	if sn.PerStreamKbps() != before/2 {
		t.Error("throttle not applied to per-stream share")
	}
}

func TestConnectDisconnect(t *testing.T) {
	m, _, _ := newTestManager(t, 1)
	id := m.All()[0].ID
	for i := 0; i < 3; i++ {
		if !m.Connect(i, id) {
			t.Fatalf("connect %d failed", i)
		}
	}
	if m.Connect(99, id) {
		t.Error("connect beyond capacity succeeded")
	}
	if m.Get(id).Load() != 3 {
		t.Errorf("load = %d", m.Get(id).Load())
	}
	m.Disconnect(0, id)
	if m.Get(id).Available() != 1 {
		t.Error("disconnect did not free a slot")
	}
	if m.Connect(5, 424242) {
		t.Error("connect to unknown supernode succeeded")
	}
}

func TestDeactivateDisplacesPlayers(t *testing.T) {
	m, _, _ := newTestManager(t, 1)
	id := m.All()[0].ID
	m.Connect(7, id)
	m.Connect(8, id)
	displaced := m.Deactivate(id)
	if len(displaced) != 2 || displaced[0] != 7 || displaced[1] != 8 {
		t.Errorf("displaced = %v", displaced)
	}
	if m.NumActive() != 0 {
		t.Error("still active after Deactivate")
	}
	if m.Deactivate(id) != nil {
		t.Error("double deactivate returned players")
	}
	m.Activate(id)
	if m.NumActive() != 1 || m.Get(id).Load() != 0 {
		t.Error("reactivation broken")
	}
}

func TestCandidatesForClosestWithCapacity(t *testing.T) {
	m, _, r := newTestManager(t, 30)
	m.CandidateListSize = 5
	player := playerAt(1, 1000, 1000, r)
	cands := m.CandidatesFor(player.Loc)
	if len(cands) != 5 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Must be sorted by distance.
	prev := -1.0
	for _, sn := range cands {
		d := geo.Distance(player.Loc, sn.Endpoint.Loc)
		if d < prev {
			t.Fatal("candidates not distance-sorted")
		}
		prev = d
	}
	// Fill the nearest candidate; it must drop out of the list.
	first := cands[0]
	for i := 0; i < first.Capacity; i++ {
		m.Connect(1000+i, first.ID)
	}
	for _, sn := range m.CandidatesFor(player.Loc) {
		if sn.ID == first.ID {
			t.Error("full supernode still offered")
		}
	}
}

func TestCandidatesForEmptyManager(t *testing.T) {
	m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
	if got := m.CandidatesFor(geo.Point{}); len(got) != 0 {
		t.Errorf("candidates from empty registry: %d", len(got))
	}
}

func TestSelectorConnectsNearby(t *testing.T) {
	m, model, r := newTestManager(t, 20)
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyRandom}
	player := playerAt(1, 1010, 1010, r)
	out := sel.Select(player, 60, nil, 0, r)
	if out.Supernode == nil {
		t.Fatalf("no supernode selected: %+v", out)
	}
	if out.Supernode.Load() != 1 {
		t.Error("selection did not connect")
	}
	if out.RequestMs <= 0 || out.PingMs <= 0 || out.ProbeMs <= 0 || out.Probed < 1 {
		t.Errorf("latency decomposition empty: %+v", out)
	}
	if out.TotalMs() != out.RequestMs+out.PingMs+out.ProbeMs {
		t.Error("TotalMs inconsistent")
	}
	if out.String() == "" {
		t.Error("empty String")
	}
}

func TestSelectorDelayFilter(t *testing.T) {
	m, model, r := newTestManager(t, 20)
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyRandom}
	// A player on the far side of the plane cannot meet a 5 ms one-way
	// threshold to supernodes around (1000, 1000).
	player := playerAt(1, 4400, 2700, r)
	out := sel.Select(player, 5, nil, 0, r)
	if out.Supernode != nil {
		t.Errorf("distant player passed the delay filter: %+v", out)
	}
	if out.Candidates != 0 {
		t.Errorf("qualified candidates = %d", out.Candidates)
	}
}

func TestSelectorSequentialProbing(t *testing.T) {
	m, model, r := newTestManager(t, 6)
	// Fill every supernode except one.
	all := m.All()
	for i, sn := range all {
		if i == len(all)-1 {
			break
		}
		for j := 0; j < sn.Capacity; j++ {
			m.Connect(10000+100*i+j, sn.ID)
		}
	}
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyRandom}
	player := playerAt(1, 1020, 1020, r)
	out := sel.Select(player, 100, nil, 0, r)
	if out.Supernode == nil {
		t.Fatal("free supernode not found")
	}
	if out.Supernode.ID != all[len(all)-1].ID {
		t.Errorf("selected %d, want the only free one", out.Supernode.ID)
	}
}

func TestSelectorReputationPrefersRated(t *testing.T) {
	m, model, r := newTestManager(t, 10)
	m.CandidateListSize = 10
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyReputation}
	player := playerAt(1, 1050, 1050, r)
	book := reputation.NewBook(0.9)
	target := m.All()[7].ID
	book.Rate(target, 0.95, 0)
	// With one highly-rated candidate and all others unknown (score 0),
	// the rated one must be probed first and chosen.
	out := sel.Select(player, 200, book, 0, r)
	if out.Supernode == nil || out.Supernode.ID != target {
		t.Fatalf("reputation ranking ignored: %+v", out)
	}
	if out.Probed != 1 {
		t.Errorf("probed %d candidates before the top-rated one", out.Probed)
	}
}

func TestSelectorGlobalReputation(t *testing.T) {
	m, model, r := newTestManager(t, 10)
	m.CandidateListSize = 10
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	global := reputation.NewGlobalBook(0.9)
	target := m.All()[3].ID
	global.Rate(target, 0.99, 0)
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyGlobalReputation, Global: global}
	player := playerAt(1, 1050, 1050, r)
	out := sel.Select(player, 200, nil, 0, r)
	if out.Supernode == nil || out.Supernode.ID != target {
		t.Fatalf("global reputation ranking ignored: %+v", out)
	}
}

func TestSelectorNilBookSafe(t *testing.T) {
	m, model, r := newTestManager(t, 5)
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyReputation}
	player := playerAt(1, 1010, 1010, r)
	out := sel.Select(player, 100, nil, 0, r) // must not panic
	if out.Supernode == nil {
		t.Error("selection with nil book failed")
	}
}

// TestSelectAllocs pins Selector.Select's steady state at zero
// allocations: the candidate, top-k, qualified-list and RTT scratch are
// reused, and the ranker sorts in place.
func TestSelectAllocs(t *testing.T) {
	sel, player, book, r := selectFixture()
	allocs := testing.AllocsPerRun(100, func() {
		out := sel.Select(player, 200, book, 0, r)
		if out.Supernode == nil {
			t.Fatal("selection failed")
		}
		sel.Manager.Disconnect(player.ID, out.Supernode.ID)
	})
	if allocs != 0 {
		t.Errorf("Select allocates %v times per call, want 0", allocs)
	}
}

// TestSelectScratchReuseMatchesFresh runs one Selector over many players
// and registries of changing availability, and requires each outcome to
// equal a fresh Selector's on an identical registry, with every RTT equal
// to netmodel's PathRTTMs.
func TestSelectScratchReuseMatchesFresh(t *testing.T) {
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	mA, model, r := newTestManager(t, 30)
	mB, _, _ := newTestManager(t, 30)
	shared := &Selector{Manager: mA, Model: model, CloudEndpoint: dc, Policy: selection.PolicyReputation}
	book := reputation.NewBook(reputation.DefaultLambda)
	rA, rB := rng.New(7), rng.New(7)
	chosen := 0
	for i := 0; i < 200; i++ {
		player := playerAt(10+i, 900+float64(i%17)*20, 900+float64(i%13)*25, r)
		if i%5 == 0 {
			mA.CandidateListSize = 3 + i%7 // the top-k buffer must follow
			mB.CandidateListSize = mA.CandidateListSize
		}
		got := shared.Select(player, 40+float64(i%4)*30, book, 0, rA)
		fresh := &Selector{Manager: mB, Model: model, CloudEndpoint: dc, Policy: selection.PolicyReputation}
		want := fresh.Select(player, 40+float64(i%4)*30, book, 0, rB)
		gotID, wantID := -1, -1
		if got.Supernode != nil {
			gotID = got.Supernode.ID
			book.Rate(gotID, float64(i%10)/10, 0)
			chosen++
		}
		if want.Supernode != nil {
			wantID = want.Supernode.ID
		}
		if gotID != wantID || got.RequestMs != want.RequestMs || got.PingMs != want.PingMs ||
			got.ProbeMs != want.ProbeMs || got.Probed != want.Probed || got.Candidates != want.Candidates {
			t.Fatalf("player %d: reused %+v (sn %d), fresh %+v (sn %d)", i, got, gotID, want, wantID)
		}
		if got.RTTMs != want.RTTMs {
			t.Fatalf("player %d: reused RTTMs %v, fresh %v", i, got.RTTMs, want.RTTMs)
		}
		if got.Supernode != nil && got.RTTMs != model.PathRTTMs(player, got.Supernode.Endpoint) {
			t.Fatalf("player %d: RTTMs %v, PathRTTMs %v", i, got.RTTMs, model.PathRTTMs(player, got.Supernode.Endpoint))
		}
		if got.RequestMs != model.PathRTTMs(player, dc) {
			t.Fatalf("player %d: RequestMs %v, PathRTTMs %v", i, got.RequestMs, model.PathRTTMs(player, dc))
		}
	}
	if chosen == 0 || chosen == 200 {
		t.Errorf("%d of 200 selections connected; want both outcomes covered", chosen)
	}
}

func TestAllSortedAndNumActive(t *testing.T) {
	m, _, _ := newTestManager(t, 5)
	all := m.All()
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatal("All() not sorted")
		}
	}
	if m.NumActive() != 5 {
		t.Errorf("NumActive = %d", m.NumActive())
	}
	m.Deactivate(all[0].ID)
	if m.NumActive() != 4 {
		t.Errorf("NumActive after deactivate = %d", m.NumActive())
	}
}

// TestRegisterAnyOrder registers IDs below, inside and above the dense
// index's span, with gaps and a replacement, and checks Get, All and the
// candidate list against what was registered.
func TestRegisterAnyOrder(t *testing.T) {
	m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
	r := rng.New(3)
	want := map[int]*Supernode{}
	for _, id := range []int{50, 52, 40, 51, 60, 40, 45, 0} {
		want[id] = registerAt(m, id, geo.Point{X: float64(id) * 10, Y: 500}, 2, r)
	}
	for id := -5; id <= 70; id++ {
		if got := m.Get(id); got != want[id] {
			t.Errorf("Get(%d) = %v, want %v", id, got, want[id])
		}
	}
	all := m.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d supernodes, want %d", len(all), len(want))
	}
	for i, sn := range all {
		if want[sn.ID] != sn || (i > 0 && all[i-1].ID >= sn.ID) {
			t.Fatalf("All() = %v: not the registered supernodes in ID order", all)
		}
	}
	m.CandidateListSize = len(want)
	if got := m.CandidatesFor(geo.Point{X: 400, Y: 500}); len(got) != len(want) || got[0] != want[40] {
		t.Errorf("CandidatesFor after re-registration = %v", got)
	}
}

// TestDisconnectSwapRemove connects, disconnects and reconnects players in
// mixed order and checks Load, Players and a repeated Connect.
func TestDisconnectSwapRemove(t *testing.T) {
	m, _, _ := newTestManager(t, 1)
	sn := m.All()[0]
	sn.Capacity = 5
	for _, p := range []int{4, 2, 9, 7} {
		m.Connect(p, sn.ID)
	}
	if !m.Connect(2, sn.ID) || sn.Load() != 4 {
		t.Fatalf("reconnecting an attached player: load %d, want 4", sn.Load())
	}
	m.Disconnect(4, sn.ID)
	m.Disconnect(5, sn.ID) // not attached
	m.Disconnect(7, sn.ID)
	if got := sn.Players(); len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Errorf("Players after disconnects = %v, want [2 9]", got)
	}
	m.Connect(1, sn.ID)
	if got := sn.Players(); len(got) != 3 || got[0] != 1 || sn.Available() != 2 {
		t.Errorf("Players = %v, Available %d", got, sn.Available())
	}
}

func TestPlayersSorted(t *testing.T) {
	m, _, _ := newTestManager(t, 1)
	id := m.All()[0].ID
	m.Connect(9, id)
	m.Connect(3, id)
	m.Connect(5, id)
	got := m.Get(id).Players()
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 9 {
		t.Errorf("Players = %v", got)
	}
}

func TestSelectorGlobalReputationShufflesUnknowns(t *testing.T) {
	// Regression: under PolicyGlobalReputation, score-0 unknowns used to be
	// probed in deterministic (distance) order, herding every player onto
	// the same supernode. The shared ranker shuffles ties before the stable
	// sort, so the first probe must vary across streams.
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	first := map[int]bool{}
	for seed := uint64(0); seed < 24; seed++ {
		m, model, _ := newTestManager(t, 10)
		m.CandidateListSize = 10
		sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc,
			Policy: selection.PolicyGlobalReputation, Global: reputation.NewGlobalBook(0.9)}
		r := rng.New(1000 + seed)
		out := sel.Select(playerAt(1, 1050, 1050, r), 200, nil, 0, r)
		if out.Supernode == nil {
			t.Fatal("selection failed")
		}
		first[out.Supernode.ID] = true
	}
	if len(first) < 3 {
		t.Errorf("unknown candidates herd onto %v under global reputation", first)
	}
}

// scanCandidates is CandidatesFor as a linear scan of every registered
// supernode: the reference the grid index must reproduce exactly.
func scanCandidates(m *Manager, loc geo.Point) []*Supernode {
	// Bounded top-k selection instead of a full sort: the candidate list is
	// tiny (k = CandidateListSize) while the supernode pool is not, and this
	// runs on every join. `top` is kept sorted by (distance, ID) — the same
	// total order the full sort used — so the result is identical and, being
	// unique under that order, independent of map iteration order.
	type cand struct {
		s *Supernode
		d float64
	}
	k := m.CandidateListSize
	if k <= 0 {
		return nil
	}
	top := make([]cand, 0, k)
	for _, s := range m.ordered {
		if s.Available() <= 0 {
			continue
		}
		d := geo.Distance(loc, s.Endpoint.Loc)
		if len(top) == k {
			last := top[k-1]
			if d > last.d || (d == last.d && s.ID > last.s.ID) {
				continue
			}
		}
		i := len(top)
		if i < k {
			top = top[:i+1]
		} else {
			i = k - 1
		}
		for i > 0 && (d < top[i-1].d || (d == top[i-1].d && s.ID < top[i-1].s.ID)) {
			top[i] = top[i-1]
			i--
		}
		top[i] = cand{s: s, d: d}
	}
	out := make([]*Supernode, len(top))
	for i, c := range top {
		out[i] = c.s
	}
	return out
}

// matchesScan reports whether CandidatesFor and the scan agree at q.
func matchesScan(t testing.TB, m *Manager, q geo.Point) bool {
	t.Helper()
	got, want := m.CandidatesFor(q), scanCandidates(m, q)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		ids := func(l []*Supernode) []int {
			out := make([]int, len(l))
			for i, s := range l {
				out[i] = s.ID
			}
			return out
		}
		t.Errorf("k=%d q=%v: CandidatesFor %v, scan %v", m.CandidateListSize, q, ids(got), ids(want))
	}
	return same
}

// registerAt registers a supernode with the given ID and capacity at loc.
func registerAt(m *Manager, id int, loc geo.Point, capacity int, r *rng.Rand) *Supernode {
	sn := NewSupernode(netmodel.NewSupernodeEndpoint(id, loc, r), capacity)
	m.Register(sn)
	return sn
}

// fill connects players to sn until it has no slot left.
func fill(m *Manager, sn *Supernode) {
	for p := 0; sn.Available() > 0; p++ {
		m.Connect(1_000_000+p, sn.ID)
	}
}

func TestCandidatesForMatchesScan(t *testing.T) {
	placer := geo.NewPlacer(nil)
	planeQueries := func(r *rng.Rand) []geo.Point {
		qs := []geo.Point{
			{X: -500, Y: -500}, {X: geo.PlaneWidthKm + 900, Y: geo.PlaneHeightKm / 2},
			{X: 1e6, Y: -1e6}, {X: -1e6, Y: 1e6}, {X: 0, Y: geo.PlaneHeightKm + 1},
		}
		for i := 0; i < 60; i++ {
			qs = append(qs, placer.PlacePlayer(r), placer.PlaceUniform(r))
		}
		return qs
	}
	check := func(t *testing.T, m *Manager, qs []geo.Point, ks ...int) {
		t.Helper()
		for _, k := range ks {
			m.CandidateListSize = k
			for _, q := range qs {
				if !matchesScan(t, m, q) {
					return
				}
			}
		}
	}

	t.Run("metro and uniform, inactive and full", func(t *testing.T) {
		r := rng.New(11)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		for i := 0; i < 1500; i++ {
			loc := placer.PlacePlayer(r)
			if r.Bool(0.4) {
				loc = placer.PlaceUniform(r)
			}
			sn := registerAt(m, 10+i, loc, 1+r.Intn(4), r)
			sn.Active = i < 900
			if i%4 == 0 {
				fill(m, sn)
			}
		}
		check(t, m, planeQueries(r), 8, 1, 40)
	})

	t.Run("one metro, queries outside its bounding box", func(t *testing.T) {
		r := rng.New(12)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		for i := 0; i < 400; i++ {
			loc := geo.Point{X: r.Normal(4100, 60), Y: r.Normal(1900, 60)}
			registerAt(m, 10+i, loc, 2, r)
		}
		check(t, m, planeQueries(r), 8, 3)
	})

	t.Run("duplicate locations tie on distance", func(t *testing.T) {
		r := rng.New(13)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		sites := make([]geo.Point, 12)
		for i := range sites {
			sites[i] = placer.PlaceUniform(r)
		}
		// IDs are registered in a shuffled order, so ties are not broken by
		// registration order.
		for _, i := range r.Perm(300) {
			registerAt(m, 10+i, sites[i%len(sites)], 1, r)
		}
		qs := append(planeQueries(r), sites...)
		// Equidistant from two sites: every supernode at both ties.
		qs = append(qs, geo.Point{X: (sites[0].X + sites[1].X) / 2, Y: (sites[0].Y + sites[1].Y) / 2})
		check(t, m, qs, 8, 25, 1)
	})

	t.Run("degenerate extents", func(t *testing.T) {
		r := rng.New(14)
		for _, line := range []func(i int) geo.Point{
			func(int) geo.Point { return geo.Point{X: 700, Y: 700} },
			func(i int) geo.Point { return geo.Point{X: float64(i) * 13, Y: 700} },
			func(i int) geo.Point { return geo.Point{X: 700, Y: float64(i*i) * 0.01} },
		} {
			m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
			for i := 0; i < 50; i++ {
				registerAt(m, 10+i, line(i), 1, r)
			}
			check(t, m, planeQueries(r), 8, 60)
		}
	})

	t.Run("k beyond available, k zero, single supernode", func(t *testing.T) {
		r := rng.New(15)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		check(t, m, planeQueries(r), 8, 0)
		registerAt(m, 7, geo.Point{X: 2000, Y: 1000}, 1, r)
		check(t, m, planeQueries(r), 8, 1, 0)
		for i := 0; i < 20; i++ {
			sn := registerAt(m, 100+i, placer.PlaceUniform(r), 1, r)
			sn.Active = i%3 != 0
		}
		check(t, m, planeQueries(r), 0, 50)
		if got := len(m.CandidatesFor(geo.Point{X: 2000, Y: 1000})); got != 1+13 {
			t.Errorf("k=50 over 14 available returned %d", got)
		}
	})

	t.Run("Register replaces an ID at a new location", func(t *testing.T) {
		r := rng.New(16)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		for i := 0; i < 200; i++ {
			registerAt(m, 10+i, placer.PlacePlayer(r), 2, r)
		}
		qs := planeQueries(r)
		check(t, m, qs, 8)
		far := geo.Point{X: 10, Y: 2790}
		for _, id := range []int{10, 105, 209} {
			registerAt(m, id, far, 2, r)
			check(t, m, qs, 8)
		}
		if got := m.CandidatesFor(far); len(got) == 0 || got[0].ID != 10 {
			t.Errorf("moved supernodes not found at their new location: %v", got)
		}
	})

	t.Run("Deactivate and Activate between queries", func(t *testing.T) {
		r := rng.New(17)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		for i := 0; i < 300; i++ {
			registerAt(m, 10+i, placer.PlacePlayer(r), 2, r)
		}
		qs := planeQueries(r)
		for round := 0; round < 5; round++ {
			for _, i := range r.Perm(300)[:60] {
				if round%2 == 0 {
					m.Deactivate(10 + i)
				} else {
					m.Activate(10 + i)
				}
			}
			check(t, m, qs, 8)
		}
	})
}

// FuzzCandidatesForMatchesScan compares CandidatesFor with the scan over
// registries the fuzzer lays out: three bytes per supernode give its cell
// on a 256×256 lattice of pitch unit and its state, so ties on distance,
// coincident points, lines and single points all come up.
func FuzzCandidatesForMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 10, 0, 250, 3, 1, 10, 10, 2}, 17.5, 3.0, -4.0, uint8(2), uint64(1))
	f.Add([]byte{128, 128, 8, 127, 127, 8, 0, 0, 4, 5, 200, 12}, 7750.0, 1e6, -1e6, uint8(8), uint64(2))
	f.Add([]byte{1, 2, 0}, 0.0, 0.0, 0.0, uint8(1), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, unit, qx, qy float64, k uint8, seed uint64) {
		const limit = 1e6
		// Coordinates are finite and within ±limit: a lattice index is at
		// most 128 (plus jitter below 1) in magnitude.
		if math.IsNaN(unit) || math.Abs(unit) > limit/129 ||
			math.IsNaN(qx) || math.Abs(qx) > limit || math.IsNaN(qy) || math.Abs(qy) > limit {
			t.Skip()
		}
		r := rng.New(seed)
		m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
		m.CandidateListSize = int(k % 24)
		var ids []int
		for i := 0; i+2 < len(raw) && i < 3*400; i += 3 {
			state := raw[i+2]
			x, y := float64(int8(raw[i])), float64(int8(raw[i+1]))
			if state&8 != 0 {
				x, y = x+r.Float64(), y+r.Float64()
			}
			id := len(ids) + 1
			if state&4 != 0 && len(ids) > 0 {
				id = ids[int(state>>4)%len(ids)] // re-register an ID elsewhere
			} else {
				ids = append(ids, id)
			}
			sn := registerAt(m, id, geo.Point{X: x * unit, Y: y * unit}, 1+int(state>>6), r)
			sn.Active = state&1 == 0
			if state&2 != 0 {
				fill(m, sn)
			}
		}
		q := geo.Point{X: qx, Y: qy}
		if !matchesScan(t, m, q) {
			return
		}
		// Flip some supernodes' state between queries; the index stays.
		for i, id := range ids {
			if int(seed>>(i%64))&1 == 1 {
				if m.Get(id).Active {
					m.Deactivate(id)
				} else {
					m.Activate(id)
				}
			}
		}
		matchesScan(t, m, q)
		if len(ids) > 0 {
			matchesScan(t, m, m.Get(ids[0]).Endpoint.Loc)
		}
	})
}
