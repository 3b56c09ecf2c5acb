// Package virtualworld implements the authoritative MMOG game-state
// substrate that CloudFog's cloud layer runs: "the server collects action
// information from all involved players in the system and performs the
// computation of the new game state of the virtual world (including the
// new shape and position of objects and states of avatars)".
//
// The world is a bounded 2D plane populated by avatars (player-controlled)
// and objects (NPCs, items). Players submit Actions (move, attack, emote,
// pick up); a tick applies every pending action, resolves combat, and
// produces per-entity deltas. The world is spatially partitioned into
// regions (the kd-tree partitioning of Bezerra et al. that the paper's
// related work builds on) so that load balancing and interest management —
// which entities a given viewpoint needs — are cheap.
//
// This is the state the cloud computes and the source of the compact
// update stream (Λ) pushed to supernodes; package updates encodes the
// deltas, and internal/render turns replica snapshots into per-player
// frames on the fog side.
package virtualworld

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// World dimensions, in abstract world units.
const (
	DefaultWidth  = 1024.0
	DefaultHeight = 1024.0
)

// EntityKind distinguishes world entities.
type EntityKind uint8

const (
	// KindAvatar is a player-controlled character.
	KindAvatar EntityKind = iota + 1
	// KindNPC is a computer-controlled character.
	KindNPC
	// KindItem is a pickable object.
	KindItem
)

// String returns the kind name.
func (k EntityKind) String() string {
	switch k {
	case KindAvatar:
		return "avatar"
	case KindNPC:
		return "npc"
	case KindItem:
		return "item"
	default:
		return "unknown"
	}
}

// EntityID identifies an entity within a world.
type EntityID uint32

// Entity is one object of the virtual world.
type Entity struct {
	// ID is the entity's identifier.
	ID EntityID
	// Kind is the entity class.
	Kind EntityKind
	// Owner is the player ID controlling an avatar (-1 otherwise).
	Owner int
	// X, Y is the position.
	X, Y float64
	// Facing is the orientation in radians.
	Facing float64
	// HP is hit points (avatars and NPCs).
	HP int16
	// State is an opaque animation/pose state tag.
	State uint8
	// Version increments on every mutation; deltas carry it so replicas
	// can discard stale updates.
	Version uint32
}

// ActionKind enumerates the player actions of the game.
type ActionKind uint8

const (
	// ActMove steers the avatar toward a target point.
	ActMove ActionKind = iota + 1
	// ActAttack strikes a target entity within range.
	ActAttack
	// ActPickUp collects a nearby item.
	ActPickUp
	// ActEmote changes the avatar's pose/state.
	ActEmote
)

// String returns the action name.
func (a ActionKind) String() string {
	switch a {
	case ActMove:
		return "move"
	case ActAttack:
		return "attack"
	case ActPickUp:
		return "pickup"
	case ActEmote:
		return "emote"
	default:
		return "unknown"
	}
}

// Action is one player input, as delivered to the cloud.
type Action struct {
	// Player is the acting player's ID.
	Player int
	// Kind is the action type.
	Kind ActionKind
	// TargetX, TargetY is the destination of a move.
	TargetX, TargetY float64
	// TargetEntity is the victim of an attack or the item of a pickup.
	TargetEntity EntityID
	// StateTag is the pose for an emote.
	StateTag uint8
}

// Gameplay tuning constants.
const (
	// MoveSpeed is avatar movement per tick, in world units.
	MoveSpeed = 8.0
	// AttackRange is the maximum strike distance.
	AttackRange = 24.0
	// AttackDamage is hit points removed per strike.
	AttackDamage = 12
	// PickUpRange is the maximum collect distance.
	PickUpRange = 12.0
	// MaxHP is the avatar spawn/respawn hit points.
	MaxHP = 100
)

// World is the authoritative game state. It is not safe for concurrent
// use; the cloud serializes ticks per shard.
type World struct {
	width, height float64
	entities      map[EntityID]*Entity
	byOwner       map[int]EntityID
	nextID        EntityID
	tick          uint64
	// grid is the uniform spatial index over entity positions, maintained
	// incrementally at every mutation site (spawn, move, despawn, restore)
	// so interest-managed fan-out never rebuilds it per tick. It is pure
	// derived state: checkpoints don't carry it, Restore re-derives it.
	grid *Grid
	// Per-tick scratch, reused across Steps: the player-sorted action
	// copy, the IDs touched and despawned this tick (duplicates allowed
	// until the final sort), and the owned-avatar scan of the respawn
	// pass. viewCells backs ViewInto.
	actScratch []Action
	changedIDs []EntityID
	removedIDs []EntityID
	ownedIDs   []EntityID
	viewCells  []uint32
}

// New creates an empty world of the given size (non-positive dimensions
// take the defaults).
func New(width, height float64) *World {
	if width <= 0 {
		width = DefaultWidth
	}
	if height <= 0 {
		height = DefaultHeight
	}
	return &World{
		width:    width,
		height:   height,
		entities: make(map[EntityID]*Entity),
		byOwner:  make(map[int]EntityID),
		nextID:   1,
		grid:     NewGrid(Geometry(width, height, DefaultCellSize)),
	}
}

// Grid returns the world's spatial index. Callers must treat it as
// read-only; it is maintained by the world's own mutation paths.
func (w *World) Grid() *Grid { return w.grid }

// Size returns the world dimensions.
func (w *World) Size() (width, height float64) { return w.width, w.height }

// Tick returns the current tick number.
func (w *World) Tick() uint64 { return w.tick }

// NumEntities returns the entity count.
func (w *World) NumEntities() int { return len(w.entities) }

// clampPos keeps a position on the plane.
func (w *World) clampPos(x, y float64) (float64, float64) {
	return math.Max(0, math.Min(w.width, x)), math.Max(0, math.Min(w.height, y))
}

// SpawnAvatar creates (or returns the existing) avatar for a player at the
// given position.
func (w *World) SpawnAvatar(player int, x, y float64) *Entity {
	if id, ok := w.byOwner[player]; ok {
		return w.entities[id]
	}
	x, y = w.clampPos(x, y)
	e := &Entity{
		ID:    w.nextID,
		Kind:  KindAvatar,
		Owner: player,
		X:     x, Y: y,
		HP:      MaxHP,
		Version: 1,
	}
	w.nextID++
	w.entities[e.ID] = e
	w.byOwner[player] = e.ID
	w.grid.Insert(e.ID, e.X, e.Y)
	return e
}

// SpawnNPC creates an NPC at the given position.
func (w *World) SpawnNPC(x, y float64) *Entity {
	x, y = w.clampPos(x, y)
	e := &Entity{ID: w.nextID, Kind: KindNPC, Owner: -1, X: x, Y: y, HP: MaxHP, Version: 1}
	w.nextID++
	w.entities[e.ID] = e
	w.grid.Insert(e.ID, e.X, e.Y)
	return e
}

// SpawnItem creates an item at the given position.
func (w *World) SpawnItem(x, y float64) *Entity {
	x, y = w.clampPos(x, y)
	e := &Entity{ID: w.nextID, Kind: KindItem, Owner: -1, X: x, Y: y, Version: 1}
	w.nextID++
	w.entities[e.ID] = e
	w.grid.Insert(e.ID, e.X, e.Y)
	return e
}

// RemovePlayer despawns a player's avatar (logout).
func (w *World) RemovePlayer(player int) {
	if id, ok := w.byOwner[player]; ok {
		if e := w.entities[id]; e != nil {
			w.grid.Remove(id, e.X, e.Y)
		}
		delete(w.entities, id)
		delete(w.byOwner, player)
	}
}

// Avatar returns the player's avatar, or nil.
func (w *World) Avatar(player int) *Entity {
	if id, ok := w.byOwner[player]; ok {
		return w.entities[id]
	}
	return nil
}

// Entity returns the entity with the given ID, or nil.
func (w *World) Entity(id EntityID) *Entity { return w.entities[id] }

// Entities returns all entities sorted by ID (deterministic order).
func (w *World) Entities() []*Entity {
	out := make([]*Entity, 0, len(w.entities))
	for _, e := range w.entities {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delta records one entity change produced by a tick.
type Delta struct {
	// ID is the changed entity.
	ID EntityID
	// Removed marks a despawn; the remaining fields are zero.
	Removed bool
	// Entity is the post-change entity state (a copy).
	Entity Entity
}

// Step advances the world one tick: every action is applied in a
// deterministic order (by player ID), combat resolves, and the set of
// changed entities is returned as deltas — the payload of the cloud's
// update stream to supernodes.
func (w *World) Step(actions []Action) []Delta {
	w.tick++
	changed, removed := w.changedIDs[:0], w.removedIDs[:0]

	sorted := append(w.actScratch[:0], actions...)
	slices.SortStableFunc(sorted, func(a, b Action) int { return cmp.Compare(a.Player, b.Player) })

	for _, a := range sorted {
		actor := w.Avatar(a.Player)
		if actor == nil || actor.HP <= 0 {
			continue
		}
		switch a.Kind {
		case ActMove:
			if w.applyMove(actor, a.TargetX, a.TargetY) {
				changed = append(changed, actor.ID)
			}
		case ActAttack:
			if victim := w.applyAttack(actor, a.TargetEntity); victim != nil {
				changed = append(changed, actor.ID, victim.ID)
				if victim.HP <= 0 && victim.Kind == KindNPC {
					w.grid.Remove(victim.ID, victim.X, victim.Y)
					delete(w.entities, victim.ID)
					removed = append(removed, victim.ID)
				}
			}
		case ActPickUp:
			if item := w.applyPickUp(actor, a.TargetEntity); item != nil {
				changed = append(changed, actor.ID)
				removed = append(removed, item.ID)
			}
		case ActEmote:
			actor.State = a.StateTag
			actor.Version++
			changed = append(changed, actor.ID)
		}
	}

	// Respawn dead avatars at the origin corner with full HP.
	for _, id := range w.sortedOwnedIDs() {
		e := w.entities[id]
		if e != nil && e.Kind == KindAvatar && e.HP <= 0 {
			ox, oy := e.X, e.Y
			e.HP = MaxHP
			e.X, e.Y = w.clampPos(8, 8)
			e.Version++
			w.grid.Move(e.ID, ox, oy, e.X, e.Y)
			changed = append(changed, e.ID)
		}
	}

	// Emit in ID order: entities that changed and still exist, then the
	// despawns. Only the touched IDs are sorted, so a tick costs what it
	// changed, not what the world holds. An entity can change many times
	// in a tick but despawns once (it is gone from w.entities after), so
	// only changed needs deduplicating. The result is freshly allocated:
	// callers keep batches across ticks.
	slices.Sort(changed)
	changed = slices.Compact(changed)
	slices.Sort(removed)
	deltas := make([]Delta, 0, len(changed)+len(removed))
	for _, id := range changed {
		if e := w.entities[id]; e != nil {
			deltas = append(deltas, Delta{ID: id, Entity: *e})
		}
	}
	for _, id := range removed {
		deltas = append(deltas, Delta{ID: id, Removed: true})
	}
	w.actScratch, w.changedIDs, w.removedIDs = sorted[:0], changed[:0], removed[:0]
	return deltas
}

// sortedOwnedIDs returns every player-owned entity ID in ascending order,
// in scratch the next call reuses.
func (w *World) sortedOwnedIDs() []EntityID {
	ids := w.ownedIDs[:0]
	for _, id := range w.byOwner {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w.ownedIDs = ids
	return ids
}

func (w *World) applyMove(actor *Entity, tx, ty float64) bool {
	tx, ty = w.clampPos(tx, ty)
	dx, dy := tx-actor.X, ty-actor.Y
	dist := math.Hypot(dx, dy)
	if dist == 0 {
		return false
	}
	step := math.Min(MoveSpeed, dist)
	ox, oy := actor.X, actor.Y
	// Re-clamp: dx/dist*step can overshoot a world edge by one ulp.
	actor.X, actor.Y = w.clampPos(actor.X+dx/dist*step, actor.Y+dy/dist*step)
	actor.Facing = math.Atan2(dy, dx)
	actor.Version++
	w.grid.Move(actor.ID, ox, oy, actor.X, actor.Y)
	return true
}

func (w *World) applyAttack(actor *Entity, target EntityID) *Entity {
	victim := w.entities[target]
	if victim == nil || victim.ID == actor.ID || victim.Kind == KindItem {
		return nil
	}
	if math.Hypot(victim.X-actor.X, victim.Y-actor.Y) > AttackRange {
		return nil
	}
	victim.HP -= AttackDamage
	victim.Version++
	actor.State = 1 // attacking pose
	actor.Version++
	return victim
}

func (w *World) applyPickUp(actor *Entity, target EntityID) *Entity {
	item := w.entities[target]
	if item == nil || item.Kind != KindItem {
		return nil
	}
	if math.Hypot(item.X-actor.X, item.Y-actor.Y) > PickUpRange {
		return nil
	}
	w.grid.Remove(item.ID, item.X, item.Y)
	delete(w.entities, item.ID)
	actor.Version++
	return item
}

// Snapshot is an immutable copy of the world at a tick, for replicas and
// renderers.
type Snapshot struct {
	// Tick is the world tick the snapshot was taken at.
	Tick uint64
	// Width, Height are the world dimensions.
	Width, Height float64
	// Entities are copies, sorted by ID.
	Entities []Entity
}

// Snapshot captures the current world state.
func (w *World) Snapshot() Snapshot {
	es := w.Entities()
	out := Snapshot{Tick: w.tick, Width: w.width, Height: w.height,
		Entities: make([]Entity, len(es))}
	for i, e := range es {
		out.Entities[i] = *e
	}
	return out
}

// String renders a summary.
func (w *World) String() string {
	return fmt.Sprintf("world{%gx%g tick=%d entities=%d}", w.width, w.height, w.tick, len(w.entities))
}
