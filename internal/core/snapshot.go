package core

import (
	"encoding/json"
	"fmt"
)

// The snapshot DTOs capture every field of the protocol state machine, so a
// node restarted by its host OS can resume its diagnostic job exactly where
// it stopped (same buffers, same counters) instead of rejoining with amnesia
// — the checkpointing hook a production middleware needs.

type protocolSnapshot struct {
	Config Config           `json:"config"`
	Steps  int              `json:"steps"`
	PR     prSnapshot       `json:"pr"`
	PrevDM map[int]Syndrome `json:"prevDM,omitempty"`

	PrevLS     Syndrome `json:"prevLS"`
	PrevAlLS   Syndrome `json:"prevAlLS"`
	LastSent   Syndrome `json:"lastSent"`
	PrevSent   Syndrome `json:"prevSent"`
	Accuse     []int    `json:"accuse"`
	AccusedAge []int    `json:"accusedAge"`
}

type prSnapshot struct {
	Penalties []int64 `json:"penalties"`
	Rewards   []int64 `json:"rewards"`
	Active    []bool  `json:"active"`
	Observe   []int64 `json:"observe"`
}

// Snapshot serialises the protocol's full state (configuration, alignment
// buffers, accusation state and penalty/reward counters) to JSON. The wire
// format is unchanged from the pre-double-buffering layout: only the buffer
// the next Step will read (the previous round's observations) is captured.
// The packed representation materialises to the exact scalar form, so the
// bytes do not depend on the representation.
func (p *Protocol) Snapshot() ([]byte, error) {
	if p.packed {
		return json.Marshal(p.snapshot(0, p.pr, p.accuse, p.accusedAge))
	}
	n := p.cfg.N
	rd := &p.scalar.bufs[p.steps&1]
	snap := protocolSnapshot{
		Config:     p.cfg,
		Steps:      p.steps,
		PR:         p.pr.snapshot(0),
		PrevDM:     make(map[int]Syndrome),
		PrevLS:     rd.ls,
		PrevAlLS:   rd.al,
		LastSent:   p.scalar.lastSent,
		PrevSent:   p.scalar.prevSent,
		Accuse:     p.accuse,
		AccusedAge: p.accusedAge,
	}
	for j := 1; j <= n; j++ {
		if rd.set[j] {
			snap.PrevDM[j] = rd.dm[j]
		}
	}
	return json.Marshal(snap)
}

// snapshot materialises lane `lane`'s kernel state, with the given
// penalty/reward and accusation state, in the Snapshot wire form.
func (k *laneKernel) snapshot(lane int, pr *PenaltyReward, accuse, age []int) protocolSnapshot {
	n := k.cfg.N
	rd := &k.bufs[k.steps&1]
	snap := protocolSnapshot{
		Config:     k.cfg,
		Steps:      k.steps,
		PR:         pr.snapshot(lane),
		PrevDM:     make(map[int]Syndrome),
		PrevLS:     k.laneSyndrome(rd.ls, lane),
		PrevAlLS:   k.laneSyndrome(rd.al, lane),
		LastSent:   k.laneSyndrome(k.lastSent, lane),
		PrevSent:   k.laneSyndrome(k.prevSent, lane),
		Accuse:     accuse,
		AccusedAge: age,
	}
	for j := 1; j <= n; j++ {
		if rd.set&(1<<uint(lane*n+j-1)) != 0 {
			snap.PrevDM[j] = k.laneSyndrome(rd.rows[j], lane)
		}
	}
	return snap
}

// laneSyndrome materialises lane `lane`'s segment of a lane-packed syndrome.
func (k *laneKernel) laneSyndrome(b BitSyndrome, lane int) Syndrome {
	n := k.cfg.N
	return BitSyndrome{Op: laneExtract(b.Op, lane, n), Known: laneExtract(b.Known, lane, n)}.Unpack(n)
}

// snapshot views lane `lane`'s counter block (no copy).
func (pr *PenaltyReward) snapshot(lane int) prSnapshot {
	lo, hi := lane*(pr.n+1), (lane+1)*(pr.n+1)
	return prSnapshot{
		Penalties: pr.penalties[lo:hi:hi],
		Rewards:   pr.rewards[lo:hi:hi],
		Active:    pr.active[lo:hi:hi],
		Observe:   pr.observe[lo:hi:hi],
	}
}

// RestoreProtocol rebuilds a protocol instance from a Snapshot. The restored
// instance continues at the next round after the snapshot was taken.
func RestoreProtocol(data []byte) (*Protocol, error) {
	// The round cursor is decoded through a pointer shadow so a checkpoint
	// that lost its "steps" field is rejected instead of silently resuming
	// from round zero — which would replay rounds the cluster already
	// executed and desynchronise the node from its peers. The embedded
	// struct keeps every other field's decoding (and Snapshot's wire bytes)
	// unchanged.
	var wire struct {
		protocolSnapshot
		Steps *int `json:"steps"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if wire.Steps == nil {
		return nil, fmt.Errorf("core: restore: checkpoint has no round cursor (missing \"steps\")")
	}
	if *wire.Steps < 0 {
		return nil, fmt.Errorf("core: restore: negative round cursor (steps = %d)", *wire.Steps)
	}
	snap := wire.protocolSnapshot
	snap.Steps = *wire.Steps
	// Every state vector is checked against N before the protocol is built,
	// and the fixed-size ones first, so N — and with it the buffers
	// NewProtocol sizes and the loops below — stays bounded by the input.
	n := snap.Config.N
	// Checked as an ordered slice, not a map: which syndrome's error is
	// reported must not depend on map-iteration order (no-map-range-state).
	for _, v := range []struct {
		name string
		s    Syndrome
	}{
		{"prevLS", snap.PrevLS}, {"prevAlLS", snap.PrevAlLS},
		{"lastSent", snap.LastSent}, {"prevSent", snap.PrevSent},
	} {
		if v.s.N() != n {
			return nil, fmt.Errorf("core: restore: %s covers %d nodes, want %d", v.name, v.s.N(), n)
		}
	}
	if len(snap.Accuse) != n+1 || len(snap.AccusedAge) != n+1 {
		return nil, fmt.Errorf("core: restore: accusation state has wrong size")
	}
	if len(snap.PR.Penalties) != n+1 || len(snap.PR.Rewards) != n+1 ||
		len(snap.PR.Active) != n+1 || len(snap.PR.Observe) != n+1 {
		return nil, fmt.Errorf("core: restore: penalty/reward state has wrong size")
	}
	for j := 1; j <= n; j++ {
		if dm, ok := snap.PrevDM[j]; ok && dm.N() != n {
			return nil, fmt.Errorf("core: restore: prevDM covers %d nodes, want %d", dm.N(), n)
		}
	}
	p, err := NewProtocol(snap.Config)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	p.steps = snap.Steps
	p.accuse = snap.Accuse
	p.accusedAge = snap.AccusedAge
	// Fill the buffer the next Step will read; the other buffer is dead
	// state (it is fully rewritten before it is ever read again).
	if p.packed {
		rd := &p.bufs[p.steps&1]
		rd.ls = packSyndrome(snap.PrevLS)
		rd.al = packSyndrome(snap.PrevAlLS)
		rd.set = 0
		for j := 1; j <= n; j++ {
			if dm, ok := snap.PrevDM[j]; ok {
				rd.rows[j] = packSyndrome(dm)
				rd.set |= 1 << uint(j-1)
			}
		}
		p.lastSent = packSyndrome(snap.LastSent)
		p.prevSent = packSyndrome(snap.PrevSent)
	} else {
		rd := &p.scalar.bufs[p.steps&1]
		copy(rd.ls, snap.PrevLS)
		copy(rd.al, snap.PrevAlLS)
		for j := 1; j <= n; j++ {
			dm, ok := snap.PrevDM[j]
			rd.set[j] = ok
			if ok {
				copy(rd.dm[j], dm)
			}
		}
		p.scalar.lastSent = snap.LastSent
		p.scalar.prevSent = snap.PrevSent
	}
	p.rebuildAccusationMasks()
	p.pr.penalties = snap.PR.Penalties
	p.pr.rewards = snap.PR.Rewards
	p.pr.active = snap.PR.Active
	p.pr.observe = snap.PR.Observe
	p.pr.rebuildMasks()
	return p, nil
}
