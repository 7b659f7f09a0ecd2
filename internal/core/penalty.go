package core

import (
	"fmt"
	"math/bits"
)

// PRConfig tunes the penalty/reward algorithm (Alg. 2 and Sec. 9).
type PRConfig struct {
	// PenaltyThreshold is P: a node is isolated once its penalty counter
	// exceeds P.
	PenaltyThreshold int64
	// RewardThreshold is R: after R consecutive fault-free rounds (while
	// carrying a non-zero penalty) the node's counters are reset — earlier
	// faults are no longer correlated with later ones.
	RewardThreshold int64
	// Criticalities[i] is s_i, the penalty increment of node i: the maximum
	// criticality level of the applications hosted on the node (Table 2).
	// 1-based; entry 0 is ignored. An empty slice means every node has
	// criticality 1.
	Criticalities []int64
	// ReintegrationThreshold enables the extension suggested in Sec. 9:
	// isolated nodes are kept under observation and reintegrated after this
	// many consecutive fault-free rounds. Zero disables reintegration
	// (the paper's baseline behaviour: activity bits only ever go to 0).
	ReintegrationThreshold int64
}

// Validate checks the configuration for an n-node system.
func (c PRConfig) Validate(n int) error {
	if c.PenaltyThreshold < 0 {
		return fmt.Errorf("core: penalty threshold %d must be >= 0", c.PenaltyThreshold)
	}
	if c.RewardThreshold < 1 {
		return fmt.Errorf("core: reward threshold %d must be >= 1", c.RewardThreshold)
	}
	if c.ReintegrationThreshold < 0 {
		return fmt.Errorf("core: reintegration threshold %d must be >= 0", c.ReintegrationThreshold)
	}
	if len(c.Criticalities) != 0 && len(c.Criticalities) != n+1 {
		return fmt.Errorf("core: criticalities has %d entries, want %d (1-based) or none", len(c.Criticalities), n+1)
	}
	for j := 1; j < len(c.Criticalities); j++ {
		if c.Criticalities[j] < 1 {
			return fmt.Errorf("core: criticality of node %d is %d, must be >= 1", j, c.Criticalities[j])
		}
	}
	return nil
}

func (c PRConfig) criticality(j int) int64 {
	if j < len(c.Criticalities) {
		return c.Criticalities[j]
	}
	return 1
}

// PenaltyReward is the per-node instance of Alg. 2: it accumulates the
// consistent health vectors into penalty and reward counters and decides
// isolation. Because every obedient node feeds it the same (consistently
// agreed) health vectors, all obedient nodes take identical isolation
// decisions in the same round.
//
// The counters of G lanes (independent runs of the same node, see
// BatchProtocol) live in flat slices indexed lane·(N+1)+j: each lane's block
// has the exact layout of a one-lane instance, which is what NewPenaltyReward
// builds and what the exported accessors read. Within the packed bound the
// activity and attention masks are lane-packed (bit lane·N + j-1); beyond it
// the instance is one unmasked lane.
type PenaltyReward struct {
	cfg       PRConfig
	n         int
	penalties []int64
	rewards   []int64
	active    []bool
	// observe counts consecutive fault-free rounds of isolated nodes for
	// the optional reintegration extension.
	observe []int64
	// activeMask mirrors active[] as a bit mask (n <= MaxPackedN only).
	activeMask uint64
	// attention marks the nodes for which a Healthy verdict is not a no-op:
	// active nodes paying off a penalty (rewards must advance) and isolated
	// nodes under reintegration observation. Together with the round's
	// faulty columns it bounds the masked update to the nodes whose
	// counters can actually move — zero in the fault-free steady state.
	attention uint64
}

// NewPenaltyReward builds the algorithm state for an n-node system; all
// counters start at zero and every node starts active.
func NewPenaltyReward(n int, cfg PRConfig) (*PenaltyReward, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: penalty/reward needs n >= 1, got %d", n)
	}
	return newPenaltyReward(n, 1, cfg)
}

// newPenaltyReward builds the state of maxLanes lanes, with one live lane.
func newPenaltyReward(n, maxLanes int, cfg PRConfig) (*PenaltyReward, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	w := maxLanes * (n + 1)
	pr := &PenaltyReward{
		cfg:       cfg,
		n:         n,
		penalties: make([]int64, w),
		rewards:   make([]int64, w),
		active:    make([]bool, w),
		observe:   make([]int64, w),
	}
	pr.reset(1)
	return pr, nil
}

// Reset zeroes all counters and returns every node to active, restoring the
// freshly constructed state while keeping the allocated counter slices.
func (pr *PenaltyReward) Reset() { pr.reset(1) }

// reset is Reset for the first `lanes` lanes, which become the live ones.
func (pr *PenaltyReward) reset(lanes int) {
	pr.activeMask, pr.attention = 0, 0
	for r := 0; r < lanes; r++ {
		base := r * (pr.n + 1)
		pr.active[base] = false
		for j := 1; j <= pr.n; j++ {
			pr.penalties[base+j] = 0
			pr.rewards[base+j] = 0
			pr.observe[base+j] = 0
			pr.active[base+j] = true
		}
		if pr.n <= MaxPackedN {
			pr.activeMask |= PlaneMask(pr.n) << uint(r*pr.n)
		}
	}
}

// ResetConfig swaps in a new tuning configuration and resets all counters.
// The node count is fixed at construction time.
func (pr *PenaltyReward) ResetConfig(cfg PRConfig) error {
	if err := cfg.Validate(pr.n); err != nil {
		return err
	}
	pr.cfg = cfg
	pr.Reset()
	return nil
}

// copyFrom overwrites pr's counters and masks with src's. Both must be sized
// for the same n and lane capacity. The config is copied by value; its
// Criticalities slice — the only reference field — is read-only after
// validation, so sharing the header is safe.
func (pr *PenaltyReward) copyFrom(src *PenaltyReward) {
	pr.cfg = src.cfg
	copy(pr.penalties, src.penalties)
	copy(pr.rewards, src.rewards)
	copy(pr.active, src.active)
	copy(pr.observe, src.observe)
	pr.activeMask = src.activeMask
	pr.attention = src.attention
}

// Update applies one consistent health vector (Alg. 2) and folds the result
// into the activity vector (Alg. 1 line 15: active ← active AND curr_act).
// It returns the nodes that transitioned in this round: isolated lists nodes
// whose activity bit dropped to 0, reintegrated (extension) lists nodes that
// returned to service.
func (pr *PenaltyReward) Update(consHV Syndrome) (isolated, reintegrated []int, err error) {
	if consHV.N() != pr.n {
		return nil, nil, fmt.Errorf("core: health vector covers %d nodes, want %d", consHV.N(), pr.n)
	}
	for i := 1; i <= pr.n; i++ {
		iso, reint := pr.updateNode(i, i, pr.bit(i), consHV[i])
		if iso {
			isolated = append(isolated, i)
		}
		if reint {
			reintegrated = append(reintegrated, i)
		}
	}
	return isolated, reintegrated, nil
}

// UpdateNode applies one agreed verdict about a single node (used by the
// low-latency per-slot variant, where verdicts arrive one slot at a time).
// It reports whether the node transitioned to isolated or, under the
// extension, back to active.
func (pr *PenaltyReward) UpdateNode(i int, health Opinion) (isolated, reintegrated bool) {
	if i < 1 || i > pr.n {
		return false, false
	}
	return pr.updateNode(i, i, pr.bit(i), health)
}

// bit is node j's one-lane mask bit; zero beyond the packed bound, where
// the instance keeps no masks.
func (pr *PenaltyReward) bit(j int) uint64 {
	if pr.n > MaxPackedN {
		return 0
	}
	return 1 << uint(j-1)
}

// updateMasked is Update on lane-packed health vectors: faultyMask marks the
// columns the consistent health vectors hold Faulty (every other column is
// Healthy — the fallback of Alg. 1 line 14 leaves no ⊥ entries). Only the
// faulty columns and the attention set are visited; for every other node the
// verdict is Healthy and the update is a no-op by construction (active with
// a zero penalty, or isolated without the reintegration extension).
// Ascending bit order is lane-major and, within a lane, ascending node
// order, so every lane's counter trajectory is that of a one-lane instance.
func (pr *PenaltyReward) updateMasked(faultyMask uint64) (isolated, reintegrated uint64) {
	// lo is the first bit of the current lane and base its counter block;
	// the bits arrive in ascending order, so the lane only moves forward.
	lo, base := 0, 0
	for rem := faultyMask | pr.attention; rem != 0; rem &= rem - 1 {
		pos, bit := bits.TrailingZeros64(rem), rem&-rem
		for pos >= lo+pr.n {
			lo, base = lo+pr.n, base+pr.n+1
		}
		health := Healthy
		if faultyMask&bit != 0 {
			health = Faulty
		}
		j := pos - lo + 1
		iso, reint := pr.updateNode(base+j, j, bit, health)
		if iso {
			isolated |= bit
		}
		if reint {
			reintegrated |= bit
		}
	}
	return isolated, reintegrated
}

// updateNode applies one verdict to node j, whose counters sit at index i
// (lane·(N+1)+j) and whose activity and attention bit is bit (zero when the
// instance keeps no masks), and keeps the masks in step.
func (pr *PenaltyReward) updateNode(i, j int, bit uint64, health Opinion) (isolated, reintegrated bool) {
	if !pr.active[i] {
		// Extension: observation of isolated nodes.
		if pr.cfg.ReintegrationThreshold > 0 {
			if health == Faulty {
				pr.observe[i] = 0
				return false, false
			}
			pr.observe[i]++
			if pr.observe[i] >= pr.cfg.ReintegrationThreshold {
				pr.active[i] = true
				pr.penalties[i] = 0
				pr.rewards[i] = 0
				pr.observe[i] = 0
				pr.activeMask |= bit
				pr.attention &^= bit
				return false, true
			}
		}
		return false, false
	}
	if health == Faulty {
		pr.penalties[i] += pr.cfg.criticality(j)
		pr.rewards[i] = 0
		if pr.penalties[i] > pr.cfg.PenaltyThreshold {
			pr.active[i] = false
			pr.observe[i] = 0
			pr.activeMask &^= bit
			if pr.cfg.ReintegrationThreshold > 0 {
				pr.attention |= bit
			} else {
				pr.attention &^= bit
			}
			return true, false
		}
		pr.attention |= bit
		return false, false
	}
	if pr.penalties[i] > 0 {
		pr.rewards[i]++
		if pr.rewards[i] >= pr.cfg.RewardThreshold {
			pr.penalties[i] = 0
			pr.rewards[i] = 0
			pr.attention &^= bit
		}
	}
	return false, false
}

// rebuildMasks recomputes a one-lane instance's activeMask and attention
// from its counter slices (used after a snapshot restore replaces them).
func (pr *PenaltyReward) rebuildMasks() {
	pr.activeMask, pr.attention = 0, 0
	for j := 1; j <= pr.n; j++ {
		bit := pr.bit(j)
		if pr.active[j] {
			pr.activeMask |= bit
		}
		if !pr.active[j] && pr.cfg.ReintegrationThreshold > 0 || pr.active[j] && pr.penalties[j] > 0 {
			pr.attention |= bit
		}
	}
}

// Active returns a copy of the activity vector (1-based).
func (pr *PenaltyReward) Active() []bool {
	return append([]bool(nil), pr.active...)
}

// ActiveMask returns the activity vector as a bit mask (bit j-1 = node j
// active) for systems within the packed bound; zero beyond it.
func (pr *PenaltyReward) ActiveMask() uint64 {
	return pr.activeMask
}

// IsActive reports whether node j is currently active (not isolated).
func (pr *PenaltyReward) IsActive(j int) bool {
	if j < 1 || j > pr.n {
		return false
	}
	return pr.active[j]
}

// Penalty returns node j's penalty counter.
func (pr *PenaltyReward) Penalty(j int) int64 {
	if j < 1 || j > pr.n {
		return 0
	}
	return pr.penalties[j]
}

// Reward returns node j's reward counter.
func (pr *PenaltyReward) Reward(j int) int64 {
	if j < 1 || j > pr.n {
		return 0
	}
	return pr.rewards[j]
}
