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
func (p *Protocol) Snapshot() ([]byte, error) {
	snap := protocolSnapshot{
		Config:     p.cfg,
		Steps:      p.steps,
		LastSent:   p.lastSent,
		PrevSent:   p.prevSent,
		Accuse:     p.accuse,
		AccusedAge: p.accusedAge,
		PR: prSnapshot{
			Penalties: p.pr.penalties,
			Rewards:   p.pr.rewards,
			Active:    p.pr.active,
			Observe:   p.pr.observe,
		},
	}
	snap.PrevDM = make(map[int]Syndrome)
	n := p.cfg.N
	if p.packed {
		// The packed alignment state materialises to the exact scalar form:
		// the JSON bytes are identical to a scalar-path snapshot.
		rd := &p.pbufs[p.steps&1]
		snap.PrevLS = rd.ls.Unpack(n)
		snap.PrevAlLS = rd.al.Unpack(n)
		for j := 1; j <= n; j++ {
			if rd.set&(1<<uint(j-1)) != 0 {
				snap.PrevDM[j] = rd.rows[j].Unpack(n)
			}
		}
	} else {
		rd := &p.scalar.bufs[p.steps&1]
		snap.PrevLS = rd.ls
		snap.PrevAlLS = rd.al
		for j := 1; j <= n; j++ {
			if rd.set[j] {
				snap.PrevDM[j] = rd.dm[j]
			}
		}
	}
	return json.Marshal(snap)
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
	p, err := NewProtocol(snap.Config)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	n := snap.Config.N
	check := func(name string, s Syndrome) error {
		if s.N() != n {
			return fmt.Errorf("core: restore: %s covers %d nodes, want %d", name, s.N(), n)
		}
		return nil
	}
	// Iterated as an ordered slice, not a map: which syndrome's error is
	// reported must not depend on map-iteration order (no-map-range-state).
	for _, it := range []struct {
		name string
		s    Syndrome
	}{
		{"prevLS", snap.PrevLS}, {"prevAlLS", snap.PrevAlLS},
		{"lastSent", snap.LastSent}, {"prevSent", snap.PrevSent},
	} {
		if err := check(it.name, it.s); err != nil {
			return nil, err
		}
	}
	if len(snap.Accuse) != n+1 || len(snap.AccusedAge) != n+1 {
		return nil, fmt.Errorf("core: restore: accusation state has wrong size")
	}
	if len(snap.PR.Penalties) != n+1 || len(snap.PR.Rewards) != n+1 ||
		len(snap.PR.Active) != n+1 || len(snap.PR.Observe) != n+1 {
		return nil, fmt.Errorf("core: restore: penalty/reward state has wrong size")
	}
	p.steps = snap.Steps
	p.lastSent = snap.LastSent
	p.prevSent = snap.PrevSent
	p.accuse = snap.Accuse
	p.accusedAge = snap.AccusedAge
	// Fill the buffer the next Step will read; the other buffer is dead
	// state (it is fully rewritten before it is ever read again).
	if p.packed {
		rd := &p.pbufs[p.steps&1]
		rd.ls = packSyndrome(snap.PrevLS)
		rd.al = packSyndrome(snap.PrevAlLS)
		rd.set = 0
		for j := 1; j <= n; j++ {
			if dm, ok := snap.PrevDM[j]; ok {
				if err := check("prevDM", dm); err != nil {
					return nil, err
				}
				rd.rows[j] = packSyndrome(dm)
				rd.set |= 1 << uint(j-1)
			}
		}
		p.lastSentP = packSyndrome(snap.LastSent)
		p.prevSentP = packSyndrome(snap.PrevSent)
	} else {
		rd := &p.scalar.bufs[p.steps&1]
		copy(rd.ls, snap.PrevLS)
		copy(rd.al, snap.PrevAlLS)
		for j := 1; j <= n; j++ {
			if dm, ok := snap.PrevDM[j]; ok {
				if err := check("prevDM", dm); err != nil {
					return nil, err
				}
				copy(rd.dm[j], dm)
				rd.set[j] = true
			} else {
				rd.set[j] = false
			}
		}
	}
	p.rebuildAccusationMasks()
	p.pr.penalties = snap.PR.Penalties
	p.pr.rewards = snap.PR.Rewards
	p.pr.active = snap.PR.Active
	p.pr.observe = snap.PR.Observe
	p.pr.rebuildMasks()
	return p, nil
}
