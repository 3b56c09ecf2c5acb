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

// World is the authoritative game state: the store, driven by the game
// rules and owning the entity ID allocator. It is not safe for concurrent
// use; the cloud serializes ticks per shard.
type World struct {
	store
	nextID EntityID
	// Per-tick scratch, reused across Steps: the player-sorted action
	// copy, the IDs touched and despawned this tick (duplicates allowed
	// until the final sort), and the owned-avatar scan of the respawn
	// pass.
	actScratch []Action
	changedIDs []EntityID
	removedIDs []EntityID
	ownedIDs   []EntityID
}

// New creates an empty world of the given size (non-positive dimensions
// take the defaults).
func New(width, height float64) *World {
	return &World{store: newStore(width, height, 0), nextID: 1}
}

// clampPos keeps a position on the plane.
func (w *World) clampPos(x, y float64) (float64, float64) {
	return math.Max(0, math.Min(w.width, x)), math.Max(0, math.Min(w.height, y))
}

// spawn gives e the next entity ID and version 1, clamps it onto the plane
// and stores it.
func (w *World) spawn(e Entity) Entity {
	e.ID, e.Version = w.nextID, 1
	e.X, e.Y = w.clampPos(e.X, e.Y)
	w.nextID++
	w.put(e)
	return e
}

// SpawnAvatar creates (or returns the existing) avatar for a player at the
// given position.
func (w *World) SpawnAvatar(player int, x, y float64) Entity {
	if a, ok := w.Avatar(player); ok {
		return a
	}
	return w.spawn(Entity{Kind: KindAvatar, Owner: player, X: x, Y: y, HP: MaxHP})
}

// SpawnNPC creates an NPC at the given position.
func (w *World) SpawnNPC(x, y float64) Entity {
	return w.spawn(Entity{Kind: KindNPC, Owner: -1, X: x, Y: y, HP: MaxHP})
}

// SpawnItem creates an item at the given position.
func (w *World) SpawnItem(x, y float64) Entity {
	return w.spawn(Entity{Kind: KindItem, Owner: -1, X: x, Y: y})
}

// RemovePlayer despawns a player's avatar (logout).
func (w *World) RemovePlayer(player int) {
	if id, ok := w.byOwner[player]; ok {
		w.drop(id)
	}
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
		actor, ok := w.Avatar(a.Player)
		if !ok || actor.HP <= 0 {
			continue
		}
		switch a.Kind {
		case ActMove:
			if w.applyMove(&actor, a.TargetX, a.TargetY) {
				changed = append(changed, actor.ID)
			}
		case ActAttack:
			if victim, ok := w.applyAttack(&actor, a.TargetEntity); ok {
				changed = append(changed, actor.ID, victim.ID)
				if victim.HP <= 0 && victim.Kind == KindNPC {
					w.drop(victim.ID)
					removed = append(removed, victim.ID)
				}
			}
		case ActPickUp:
			if item, ok := w.applyPickUp(&actor, a.TargetEntity); ok {
				changed = append(changed, actor.ID)
				removed = append(removed, item.ID)
			}
		case ActEmote:
			actor.State = a.StateTag
			actor.Version++
			w.put(actor)
			changed = append(changed, actor.ID)
		}
	}

	// Respawn dead avatars at the origin corner with full HP.
	for _, id := range w.sortedOwnedIDs() {
		if e, ok := w.entities[id]; ok && e.Kind == KindAvatar && e.HP <= 0 {
			e.HP = MaxHP
			e.X, e.Y = w.clampPos(8, 8)
			e.Version++
			w.put(e)
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
		if e, ok := w.entities[id]; ok {
			deltas = append(deltas, Delta{ID: id, Entity: e})
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

// applyMove steps the actor copy toward the target and stores it; it
// reports false, storing nothing, when the actor is already there.
func (w *World) applyMove(actor *Entity, tx, ty float64) bool {
	tx, ty = w.clampPos(tx, ty)
	dx, dy := tx-actor.X, ty-actor.Y
	dist := math.Hypot(dx, dy)
	if dist == 0 {
		return false
	}
	step := math.Min(MoveSpeed, dist)
	// Re-clamp: dx/dist*step can overshoot a world edge by one ulp.
	actor.X, actor.Y = w.clampPos(actor.X+dx/dist*step, actor.Y+dy/dist*step)
	actor.Facing = math.Atan2(dy, dx)
	actor.Version++
	w.put(*actor)
	return true
}

// applyAttack strikes the target from the actor copy and stores both; it
// returns the struck victim, or false when the strike cannot land.
func (w *World) applyAttack(actor *Entity, target EntityID) (Entity, bool) {
	victim, ok := w.entities[target]
	if !ok || victim.ID == actor.ID || victim.Kind == KindItem {
		return Entity{}, false
	}
	if math.Hypot(victim.X-actor.X, victim.Y-actor.Y) > AttackRange {
		return Entity{}, false
	}
	victim.HP -= AttackDamage
	victim.Version++
	actor.State = 1 // attacking pose
	actor.Version++
	w.put(victim)
	w.put(*actor)
	return victim, true
}

// applyPickUp collects the target item into the actor copy: the item is
// dropped and the actor stored. It returns the item, or false when it is
// out of reach or not an item.
func (w *World) applyPickUp(actor *Entity, target EntityID) (Entity, bool) {
	item, ok := w.entities[target]
	if !ok || item.Kind != KindItem {
		return Entity{}, false
	}
	if math.Hypot(item.X-actor.X, item.Y-actor.Y) > PickUpRange {
		return Entity{}, false
	}
	w.drop(item.ID)
	actor.Version++
	w.put(*actor)
	return item, true
}

// String renders a summary.
func (w *World) String() string {
	return fmt.Sprintf("world{%gx%g tick=%d entities=%d}", w.width, w.height, w.tick, len(w.entities))
}
