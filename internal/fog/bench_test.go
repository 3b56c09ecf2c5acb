package fog

import (
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
)

// selectFixture is the §3.2 selection hot path's setup: a 64-supernode
// registry, a reputation-policy Selector, one player and a partly rated
// book.
func selectFixture() (*Selector, *netmodel.Endpoint, *reputation.Book, *rng.Rand) {
	model := netmodel.NewModel(netmodel.Params{}, 1)
	m := NewManager(model)
	r := rng.New(2)
	for i := 0; i < 64; i++ {
		loc := geo.Point{X: 1000 + float64(i%8)*30, Y: 1000 + float64(i/8)*30}
		m.Register(NewSupernode(netmodel.NewSupernodeEndpoint(100+i, loc, r), 3))
	}
	dc := netmodel.NewDatacenterEndpoint(9999, geo.Point{X: 4000, Y: 1950})
	sel := &Selector{Manager: m, Model: model, CloudEndpoint: dc, Policy: selection.PolicyReputation}
	player := netmodel.NewPlayerEndpoint(1, geo.Point{X: 1050, Y: 1050}, r)
	book := reputation.NewBook(reputation.DefaultLambda)
	for i := 0; i < 16; i++ {
		book.Rate(100+i, 0.5+float64(i)/64, 0)
	}
	return sel, player, book, r
}

// BenchmarkSelectorSelect measures the §3.2 selection hot path: candidate
// fetch, delay filter, reputation ranking, and sequential probing against a
// 64-supernode registry.
func BenchmarkSelectorSelect(b *testing.B) {
	sel, player, book, r := selectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sel.Select(player, 200, book, 0, r)
		if out.Supernode == nil {
			b.Fatal("selection failed")
		}
		sel.Manager.Disconnect(player.ID, out.Supernode.ID)
	}
}

// BenchmarkCandidatesFor measures the cloud's candidate lookup on a
// registry shaped like the simulator's (core.buildFog at sim_fog_50k):
// 5,000 registered supernodes, 60 % around metros and 40 % spread
// uniformly, the first 3,000 active, and one active supernode in four full.
func BenchmarkCandidatesFor(b *testing.B) {
	m := NewManager(netmodel.NewModel(netmodel.Params{}, 1))
	r := rng.New(2)
	placer := geo.NewPlacer(nil)
	for i := 0; i < 5000; i++ {
		loc := placer.PlacePlayer(r)
		if r.Bool(0.4) {
			loc = placer.PlaceUniform(r)
		}
		ep := netmodel.NewSupernodeEndpoint(100+i, loc, r)
		sn := NewSupernode(ep, netmodel.SupernodeCapacity(r, 15, 60))
		sn.Active = i < 3000
		m.Register(sn)
		for p := 0; sn.Active && i%4 == 0 && sn.Available() > 0; p++ {
			m.Connect(p, sn.ID)
		}
	}
	players := make([]geo.Point, 1024)
	for i := range players {
		players[i] = placer.PlacePlayer(r)
	}
	m.CandidatesFor(players[0]) // builds the index, as the first join does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.CandidatesFor(players[i%len(players)])) != DefaultCandidateListSize {
			b.Fatal("short candidate list")
		}
	}
}
