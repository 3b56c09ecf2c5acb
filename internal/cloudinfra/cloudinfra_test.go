package cloudinfra

import (
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/rng"
)

func newTestCloud(t *testing.T, dcs, servers int) *Cloud {
	t.Helper()
	next := 1000
	c, err := New(dcs, servers, func() int { next++; return next - 1 })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	alloc := func() int { return 0 }
	if _, err := New(0, 5, alloc); err == nil {
		t.Error("zero datacenters accepted")
	}
	if _, err := New(3, 0, alloc); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestTopology(t *testing.T) {
	c := newTestCloud(t, 3, 4)
	if len(c.Datacenters()) != 3 {
		t.Fatalf("datacenters = %d", len(c.Datacenters()))
	}
	if c.NumServers() != 12 {
		t.Fatalf("servers = %d", c.NumServers())
	}
	seen := map[int]bool{}
	for _, dc := range c.Datacenters() {
		if dc.Endpoint == nil {
			t.Fatal("datacenter missing endpoint")
		}
		for _, s := range dc.Servers {
			if seen[s.ID] {
				t.Fatalf("duplicate server ID %d", s.ID)
			}
			seen[s.ID] = true
			if s.Datacenter != dc.ID {
				t.Errorf("server %d has wrong datacenter", s.ID)
			}
			if got := c.Server(s.ID); got != s {
				t.Errorf("Server(%d) lookup broken", s.ID)
			}
		}
	}
	if c.Server(-1) != nil || c.Server(999) != nil {
		t.Error("out-of-range server lookup not nil")
	}
}

func TestNearestDatacenter(t *testing.T) {
	c := newTestCloud(t, 5, 2)
	for _, dc := range c.Datacenters() {
		got := c.NearestDatacenter(dc.Endpoint.Loc)
		if got.ID != dc.ID {
			t.Errorf("nearest to DC %d returned %d", dc.ID, got.ID)
		}
	}
}

func TestAssignRemoveAndSameServer(t *testing.T) {
	c := newTestCloud(t, 2, 3)
	if err := c.AssignPlayerToServer(7, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignPlayerToServer(8, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignPlayerToServer(9, 5); err != nil {
		t.Fatal(err)
	}
	if !c.SameServer(7, 8) || c.SameServer(7, 9) {
		t.Error("SameServer wrong")
	}
	if c.ServerOf(7).ID != 0 || c.ServerOf(9).ID != 5 {
		t.Error("ServerOf wrong")
	}
	if c.Server(0).Load() != 2 {
		t.Errorf("server 0 load = %d", c.Server(0).Load())
	}
	// Reassignment moves, not duplicates.
	if err := c.AssignPlayerToServer(7, 1); err != nil {
		t.Fatal(err)
	}
	if c.Server(0).Load() != 1 || c.Server(1).Load() != 1 {
		t.Error("reassignment left residue")
	}
	c.RemovePlayer(7)
	if c.ServerOf(7) != nil || c.Server(1).Load() != 0 {
		t.Error("RemovePlayer incomplete")
	}
	c.RemovePlayer(7) // idempotent
	if err := c.AssignPlayerToServer(1, 999); err == nil {
		t.Error("assignment to unknown server accepted")
	}
	if c.SameServer(100, 101) {
		t.Error("unassigned players share a server")
	}

	// IDs past the end of the player index: unknown until assigned, and
	// assigning one grows the index without disturbing the others.
	if c.ServerOf(5000) != nil || c.SameServer(8, 5000) {
		t.Error("player past the index end has a server")
	}
	if err := c.AssignPlayerToServer(5000, 0); err != nil {
		t.Fatal(err)
	}
	if !c.SameServer(8, 5000) || c.ServerOf(4999) != nil || c.Server(0).Load() != 2 {
		t.Error("growing the player index broke the allocation")
	}
	// A negative ID is never allocated and cannot be.
	if c.ServerOf(-1) != nil || c.SameServer(-1, -1) || c.SameServer(-1, 8) {
		t.Error("negative player ID has a server")
	}
	if err := c.AssignPlayerToServer(-1, 0); err == nil {
		t.Error("negative player ID accepted")
	}
	c.RemovePlayer(-1)
	// Removing a player that was never allocated changes no load.
	c.RemovePlayer(42)
	c.RemovePlayer(1 << 20)
	if c.Server(0).Load() != 2 || c.Server(5).Load() != 1 {
		t.Errorf("loads after no-op removals = %d, %d", c.Server(0).Load(), c.Server(5).Load())
	}
}

func TestAssignPlayerRandom(t *testing.T) {
	c := newTestCloud(t, 2, 10)
	r := rng.New(1)
	dc := c.Datacenters()[1]
	counts := map[int]int{}
	for p := 0; p < 500; p++ {
		s := c.AssignPlayerRandom(p, dc, r)
		if s.Datacenter != 1 {
			t.Fatal("random assignment left the datacenter")
		}
		counts[s.ID]++
	}
	for _, srv := range dc.Servers {
		if counts[srv.ID] == 0 {
			t.Errorf("server %d never chosen", srv.ID)
		}
	}
}

func TestUpdateBandwidth(t *testing.T) {
	if got := UpdateBandwidthKbps(10, 150); got != 1500 {
		t.Errorf("update bandwidth = %v", got)
	}
	if got := UpdateBandwidthKbps(10, 0); got != 10*DefaultUpdateKbps {
		t.Errorf("default update bandwidth = %v", got)
	}
	if got := UpdateBandwidthKbps(0, 150); got != 0 {
		t.Errorf("no supernodes should cost nothing: %v", got)
	}
}

func TestDatacentersUseStandardSites(t *testing.T) {
	c := newTestCloud(t, 4, 1)
	sites := geo.DatacenterSites(4)
	for i, dc := range c.Datacenters() {
		if dc.Endpoint.Loc != sites[i] {
			t.Errorf("datacenter %d at %+v, want %+v", i, dc.Endpoint.Loc, sites[i])
		}
	}
}
