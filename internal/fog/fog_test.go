package fog

import (
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
	sn.players[1] = struct{}{}
	sn.players[2] = struct{}{}
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
