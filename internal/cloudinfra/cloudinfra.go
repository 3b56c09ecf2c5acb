// Package cloudinfra models the cloud side of CloudFog: datacenters, the
// servers inside them, player-to-server allocation, the inter-server
// communication cost that the social-network-based server assignment
// attacks, and the update stream the cloud pushes to supernodes.
//
// In CloudFog the cloud keeps the single authoritative copy of the virtual
// world: it collects player actions, computes the new game state, and sends
// compact update messages (bandwidth Λ per supernode) to the fog. Servers
// within a datacenter each own a partition of the players; when two players
// on different servers interact, their servers must exchange state, adding
// server-communication latency to the response path (§3.4).
package cloudinfra

import (
	"fmt"

	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/rng"
)

// Default model constants.
const (
	// DefaultUpdateKbps is Λ: the bandwidth of the cloud->supernode update
	// stream. Updates carry object/avatar state, not video, so they are an
	// order of magnitude smaller than a game video stream.
	DefaultUpdateKbps = 150

	// IntraServerCommMs is the state-exchange latency when interacting
	// players share a server (memory/local bus).
	IntraServerCommMs = 2
	// CrossServerCommMs is the state-exchange latency when interacting
	// players sit on different servers in a datacenter (network hop plus
	// synchronization round).
	CrossServerCommMs = 30
)

// Server is one game server inside a datacenter.
type Server struct {
	// ID is unique across the whole cloud.
	ID int
	// Datacenter is the owning datacenter's ID.
	Datacenter int

	load int // players allocated to the server
}

// Load returns the number of players allocated to the server.
func (s *Server) Load() int { return s.load }

// Datacenter is one cloud datacenter.
type Datacenter struct {
	// ID is the datacenter index.
	ID int
	// Endpoint is the datacenter's network attachment.
	Endpoint *netmodel.Endpoint
	// Servers are the game servers hosted inside.
	Servers []*Server
}

// Cloud is the set of datacenters plus the player->server allocation.
type Cloud struct {
	datacenters []*Datacenter
	servers     []*Server // flattened, indexed by Server.ID
	// byPlayer is indexed by player ID (nil: unallocated); it grows to the
	// largest ID ever allocated.
	byPlayer []*Server
}

// New builds a cloud of nDatacenters datacenters (placed on the standard
// sites of geo.DatacenterSites), each hosting serversPerDC servers.
// Endpoint IDs are drawn from idAlloc, a caller-supplied counter, so they
// never collide with player or supernode endpoint IDs.
func New(nDatacenters, serversPerDC int, idAlloc func() int) (*Cloud, error) {
	if nDatacenters <= 0 {
		return nil, fmt.Errorf("cloudinfra: need at least one datacenter, got %d", nDatacenters)
	}
	if serversPerDC <= 0 {
		return nil, fmt.Errorf("cloudinfra: need at least one server per datacenter, got %d", serversPerDC)
	}
	sites := geo.DatacenterSites(nDatacenters)
	c := &Cloud{}
	serverID := 0
	for i, site := range sites {
		dc := &Datacenter{
			ID:       i,
			Endpoint: netmodel.NewDatacenterEndpoint(idAlloc(), site),
		}
		for j := 0; j < serversPerDC; j++ {
			s := &Server{ID: serverID, Datacenter: i}
			serverID++
			dc.Servers = append(dc.Servers, s)
			c.servers = append(c.servers, s)
		}
		c.datacenters = append(c.datacenters, dc)
	}
	return c, nil
}

// Datacenters returns the cloud's datacenters.
func (c *Cloud) Datacenters() []*Datacenter { return c.datacenters }

// NumServers returns the total number of servers across datacenters.
func (c *Cloud) NumServers() int { return len(c.servers) }

// Server returns the server with the given ID, or nil.
func (c *Cloud) Server(id int) *Server {
	if id < 0 || id >= len(c.servers) {
		return nil
	}
	return c.servers[id]
}

// NearestDatacenter returns the datacenter closest to the given location.
func (c *Cloud) NearestDatacenter(loc geo.Point) *Datacenter {
	pts := make([]geo.Point, len(c.datacenters))
	for i, dc := range c.datacenters {
		pts[i] = dc.Endpoint.Loc
	}
	i, _ := geo.Nearest(loc, pts)
	return c.datacenters[i]
}

// AssignPlayerToServer allocates a player to an explicit server, replacing
// any previous allocation.
func (c *Cloud) AssignPlayerToServer(playerID, serverID int) error {
	s := c.Server(serverID)
	if s == nil {
		return fmt.Errorf("cloudinfra: no server %d", serverID)
	}
	if playerID < 0 {
		return fmt.Errorf("cloudinfra: negative player ID %d", playerID)
	}
	c.place(playerID, s)
	return nil
}

// AssignPlayerRandom allocates a player to a uniformly random server of the
// given datacenter — the baseline assignment of Fig. 12 and the rule for
// friendless newcomers. It panics on a negative player ID.
func (c *Cloud) AssignPlayerRandom(playerID int, dc *Datacenter, r *rng.Rand) *Server {
	s := dc.Servers[r.Intn(len(dc.Servers))]
	c.place(playerID, s)
	return s
}

// place moves the player onto s; a negative player ID panics.
func (c *Cloud) place(playerID int, s *Server) {
	c.RemovePlayer(playerID)
	if playerID >= len(c.byPlayer) {
		c.byPlayer = append(c.byPlayer, make([]*Server, playerID+1-len(c.byPlayer))...)
	}
	c.byPlayer[playerID] = s
	s.load++
}

// ServerOf returns the server the player is allocated to, or nil (also for
// a negative or never-allocated ID).
func (c *Cloud) ServerOf(playerID int) *Server {
	if playerID < 0 || playerID >= len(c.byPlayer) {
		return nil
	}
	return c.byPlayer[playerID]
}

// RemovePlayer deallocates the player, if allocated.
func (c *Cloud) RemovePlayer(playerID int) {
	if s := c.ServerOf(playerID); s != nil {
		s.load--
		c.byPlayer[playerID] = nil
	}
}

// SameServer reports whether two players are allocated to the same server.
func (c *Cloud) SameServer(a, b int) bool {
	sa := c.ServerOf(a)
	return sa != nil && sa == c.ServerOf(b)
}

// UpdateBandwidthKbps returns the total cloud egress spent on supernode
// update streams: Λ times the number of active supernodes.
func UpdateBandwidthKbps(activeSupernodes int, updateKbps float64) float64 {
	if updateKbps <= 0 {
		updateKbps = DefaultUpdateKbps
	}
	return updateKbps * float64(activeSupernodes)
}
