package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// This file is the cross-run lane-packing layer: where the packed Protocol
// bit-slices the columns of ONE cluster into a 64-bit plane word, the batch
// types below bit-slice G = ⌊64/N⌋ independent repetitions of the SAME
// cluster shape into one word. Lane r occupies bits [r·N, (r+1)·N) of every
// plane, so one carry-save vote pass, one penalty/reward sweep and one
// alignment merge advance G Monte-Carlo runs at once. The phases themselves
// are the shared lane-packed kernel (kernel.go) the per-run packed Protocol
// runs with one lane.
//
// The batch path covers the diagnostic mode only (membership accusations are
// per-run list-shaped state and stay on Protocol). Lane-exact equivalence
// with the per-run packed path — outputs, snapshot bytes, metric values — is
// pinned by batch_equivalence_test.go.

// BatchLanes returns how many independent runs of an n-node system fit one
// plane word: G = ⌊MaxPackedN/n⌋ (16 lanes at N=4, 8 at N=8, …), 0 outside
// the packed bound.
func BatchLanes(n int) int {
	if n < 1 || n > MaxPackedN {
		return 0
	}
	return MaxPackedN / n
}

// laneExtract returns lane `lane`'s n-bit segment of a lane-packed word,
// right-aligned (bit j-1 = node j).
func laneExtract(w uint64, lane, n int) uint64 {
	return (w >> uint(lane*n)) & PlaneMask(n)
}

// BatchRoundInput carries one round's controller observations for every lane
// of a gang, in lane-packed plane form. It is the G-run generalisation of
// PackedRoundInput: bit r·N + (j-1) of a plane is lane r's bit for node j.
type BatchRoundInput struct {
	// Round is the absolute round number, shared by all lanes; it must
	// advance by exactly one per StepBatch.
	Round int
	// Rows[j] is the lane-packed decoded diagnostic message of interface
	// variable j (1-based). Lane r's segment is meaningful iff the lane's
	// Present bit for j is set; absent segments may hold garbage.
	Rows []BitSyndrome
	// Present marks the interface variables holding a decodable valid
	// payload, lane-packed (bit r·N + j-1 = lane r, variable j).
	Present uint64
	// Validity packs the validity bits of the interface variables, lane-
	// packed like Present.
	Validity BitSyndrome
	// CollisionFaulty marks the lanes (bit r = lane r) whose local collision
	// detector reports Faulty for the diagnosed round — the Lemma 3 fallback
	// input. Lanes with a clear bit resolve ⊥ to Healthy, exactly like a nil
	// CollisionFn on the per-run path.
	CollisionFaulty uint64
}

// BatchRoundOutput is the result of one gang execution. Every field is a
// value (lane-packed plane words), so retaining an output costs nothing and
// StepBatch allocates nothing in steady state.
type BatchRoundOutput struct {
	// Round echoes the executed round; DiagnosedRound is the round the
	// consistent health vectors refer to (-1 while warming up).
	Round          int
	DiagnosedRound int
	// Warm reports whether the gang produced health vectors this round.
	Warm bool
	// ConsOp/ConsKnown are the lane-packed consistent health vectors (every
	// lane bit Known once warm, after the Lemma 3 fallback).
	ConsOp, ConsKnown uint64
	// SendOp/SendKnown are the lane-packed outgoing syndromes (the
	// dissemination payloads; a lane's wire bytes are its Op∧Known segment).
	SendOp, SendKnown uint64
	// ActiveMask is the lane-packed activity vector after the update.
	ActiveMask uint64
	// IsolatedMask/ReintegratedMask mark the nodes that crossed an isolation
	// threshold this round, lane-packed.
	IsolatedMask, ReintegratedMask uint64
}

// LaneConsHV returns lane `lane`'s consistent health vector.
func (o *BatchRoundOutput) LaneConsHV(lane, n int) BitSyndrome {
	return BitSyndrome{Op: laneExtract(o.ConsOp, lane, n), Known: laneExtract(o.ConsKnown, lane, n)}
}

// LaneSend returns lane `lane`'s outgoing syndrome.
func (o *BatchRoundOutput) LaneSend(lane, n int) BitSyndrome {
	return BitSyndrome{Op: laneExtract(o.SendOp, lane, n), Known: laneExtract(o.SendKnown, lane, n)}
}

// LaneActiveMask returns lane `lane`'s activity vector (bit j-1 = node j).
func (o *BatchRoundOutput) LaneActiveMask(lane, n int) uint64 {
	return laneExtract(o.ActiveMask, lane, n)
}

// LaneIsolated returns lane `lane`'s isolations this round (bit j-1).
func (o *BatchRoundOutput) LaneIsolated(lane, n int) uint64 {
	return laneExtract(o.IsolatedMask, lane, n)
}

// LaneReintegrated returns lane `lane`'s reintegrations this round.
func (o *BatchRoundOutput) LaneReintegrated(lane, n int) uint64 {
	return laneExtract(o.ReintegratedMask, lane, n)
}

// BatchProtocol runs one node's diagnostic job for G independent repetitions
// at once (same Config — shape, id, l_i — in every lane; what differs per
// lane is the observed inputs). Create one per node with NewBatchProtocol,
// call StepBatch exactly once per TDMA round, and Reset(lanes) between
// repetition gangs (ragged final gangs shrink the lane count).
//
// It runs the kernel whose one-lane case is Protocol's packed path
// (laneKernel, voteAllLanes and a PenaltyReward holding G counter blocks)
// with G lanes; what it keeps of its own is the lane-mask ⊥ fallback,
// per-lane telemetry and SnapshotLane.
type BatchProtocol struct {
	laneKernel
	lanes int

	// op/know are the gang diagnostic-matrix scratch (1-based rows). Unlike
	// the per-run path the matrix is not part of the output contract, so the
	// planes are protocol-owned and reused every round — StepBatch allocates
	// nothing in steady state.
	op   []uint64
	know []uint64

	pr *PenaltyReward

	// metrics holds the optional per-lane telemetry attachments
	// (SetLaneMetrics); any is their non-nil disjunction.
	metrics    []*StepMetrics
	anyMetrics bool

	// snapAccuse/snapAge are the diagnostic-mode accusation state every lane
	// shares (no accusations ever), kept materialised for SnapshotLane.
	snapAccuse []int
	snapAge    []int
}

// NewBatchProtocol builds the gang diagnostic job: `lanes` independent runs
// of the node described by cfg. It requires the diagnostic mode (membership
// accusation state is per-run shaped) and N·lanes ≤ MaxPackedN.
func NewBatchProtocol(cfg Config, lanes int) (*BatchProtocol, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != ModeDiagnostic {
		return nil, fmt.Errorf("core: node %d: the batch path covers the diagnostic mode only", cfg.ID)
	}
	if max := BatchLanes(cfg.N); lanes < 1 || lanes > max {
		return nil, fmt.Errorf("core: node %d: %d lanes of an N=%d system do not fit one word (1..%d)", cfg.ID, lanes, cfg.N, max)
	}
	p := &BatchProtocol{
		laneKernel: laneKernel{cfg: cfg},
		op:         make([]uint64, cfg.N+1),
		know:       make([]uint64, cfg.N+1),
		metrics:    make([]*StepMetrics, BatchLanes(cfg.N)),
		snapAccuse: make([]int, cfg.N+1),
		snapAge:    make([]int, cfg.N+1),
	}
	for j := range p.snapAge {
		p.snapAge[j] = accusationSkew + 1
	}
	p.allocBufs()
	var err error
	if p.pr, err = newPenaltyReward(cfg.N, BatchLanes(cfg.N), cfg.PR); err != nil {
		return nil, err
	}
	p.Reset(lanes)
	return p, nil
}

// Config returns the shared per-lane configuration.
func (p *BatchProtocol) Config() Config { return p.cfg }

// Lanes returns the current gang width.
func (p *BatchProtocol) Lanes() int { return p.lanes }

// Reset rewinds every lane to the freshly constructed state and sets the
// gang width for the next repetition group (ragged final gangs pass a
// smaller width). It keeps all allocated buffers.
func (p *BatchProtocol) Reset(lanes int) {
	if max := BatchLanes(p.cfg.N); lanes < 1 || lanes > max {
		panic(fmt.Sprintf("core: node %d: Reset to %d lanes, want 1..%d", p.cfg.ID, lanes, max))
	}
	p.lanes = lanes
	p.resetLanes(lanes)
	p.pr.reset(lanes)
}

// StepBatch executes the diagnostic job of every lane for one round. It is
// the gang form of StepPacked: the same kernel runs each phase of Alg. 1
// once on lane-packed words and advances all lanes together. Rows stays
// caller-owned (entries are copied by value) and may be reused immediately.
// The steady state allocates nothing — the output is all values and the
// matrix scratch is protocol-owned.
//
//ttdiag:noretain params
func (p *BatchProtocol) StepBatch(in BatchRoundInput) (BatchRoundOutput, error) {
	n := p.cfg.N
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return BatchRoundOutput{}, fmt.Errorf("core: node %d: StepBatch round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if len(in.Rows) != n+1 {
		return BatchRoundOutput{}, fmt.Errorf("core: node %d: Rows has %d entries, want %d", p.cfg.ID, len(in.Rows), n+1)
	}
	all := p.allB
	alSet, alLS := p.readAlign(in.Present, in.Validity)

	out := BatchRoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14), diagnostic mode only.
	warm := p.steps >= p.cfg.Lag()
	var diagRound int
	if warm {
		p.installRows(p.op, p.know, alSet, in.Rows)
		consOp, consKnown := voteAllLanes(p.op, p.know, n, p.laneRep)

		diagRound = in.Round - p.cfg.Lag()
		// ⊥ fallback (Alg. 1 line 14): columns outside consKnown resolve to
		// the lane's local collision verdict. The verdict is per lane and
		// round, not per column, so the per-run ascending-column query loop
		// collapses to one lane-mask expansion (cold: ⊥ needs ≥ N-1 silent
		// senders in that lane).
		if unk := all &^ consKnown; unk != 0 {
			lanesMask := uint64(1)<<uint(p.lanes) - 1
			var faultyLanes uint64
			for rem := in.CollisionFaulty & lanesMask; rem != 0; rem &= rem - 1 {
				r := bits.TrailingZeros64(rem)
				faultyLanes |= p.laneAll << uint(r*n)
			}
			consOp |= unk &^ faultyLanes
			consKnown = all
		}
		out.ConsOp, out.ConsKnown = consOp, consKnown
		out.DiagnosedRound = diagRound
		out.Warm = true
	}

	outBits := p.sendAlign(alLS)
	out.SendOp, out.SendKnown = outBits.Op, outBits.Known

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2): one masked sweep
	// over every lane's faulty columns plus the lanes' attention sets.
	if warm {
		out.IsolatedMask, out.ReintegratedMask = p.pr.updateMasked(out.ConsKnown &^ out.ConsOp & all)
	}
	out.ActiveMask = p.pr.activeMask

	p.endRound(in.Present, in.Validity, in.Rows, outBits)
	if p.anyMetrics {
		p.emitMetrics(&out, warm, diagRound)
	}
	return out, nil
}

// SetLaneMetrics attaches (or, with nil, detaches) per-lane telemetry; lane
// r's instruments receive exactly what the per-run protocol of that lane
// would emit. The attachment survives Reset.
func (p *BatchProtocol) SetLaneMetrics(lane int, m *StepMetrics) {
	p.metrics[lane] = m
	p.anyMetrics = false
	for _, lm := range p.metrics {
		if lm != nil {
			p.anyMetrics = true
			return
		}
	}
}

// emitMetrics mirrors emitStepMetrics per attached lane, reading the lane's
// segments of the gang matrix and counters.
func (p *BatchProtocol) emitMetrics(out *BatchRoundOutput, warm bool, diagRound int) {
	n := p.cfg.N
	for lane := 0; lane < p.lanes; lane++ {
		m := p.metrics[lane]
		if m == nil {
			continue
		}
		m.Steps.Inc()
		m.Isolations.Add(int64(bits.OnesCount64(laneExtract(out.IsolatedMask, lane, n))))
		m.Reintegrations.Add(int64(bits.OnesCount64(laneExtract(out.ReintegratedMask, lane, n))))
		if !warm {
			continue
		}
		shift := uint(lane * n)
		consOp := laneExtract(out.ConsOp, lane, n)
		consKnown := laneExtract(out.ConsKnown, lane, n)
		for j := 1; j <= n; j++ {
			bit := uint64(1) << uint(shift+uint(j-1))
			faulty, healthy := 0, 0
			for i := 1; i <= n; i++ {
				if i == j || p.know[i]&bit == 0 {
					continue
				}
				if p.op[i]&bit != 0 {
					healthy++
				} else {
					faulty++
				}
			}
			m.observeVote(faulty, healthy)
		}
		var disagreements int
		for i := 1; i <= n; i++ {
			rowKnow := laneExtract(p.know[i], lane, n)
			if rowKnow == 0 {
				continue
			}
			rowOp := laneExtract(p.op[i], lane, n)
			conflict := rowKnow & consKnown & (rowOp ^ consOp) &^ (uint64(1) << uint(i-1))
			disagreements += bits.OnesCount64(conflict)
		}
		m.Disagreements.Add(int64(disagreements))
		m.observePenalties(p.pr.snapshot(lane).Penalties, diagRound)
	}
}

// LanePenalty returns lane `lane`'s penalty counter of node j.
func (p *BatchProtocol) LanePenalty(lane, j int) int64 {
	if j < 1 || j > p.cfg.N {
		return 0
	}
	return p.pr.penalties[lane*(p.cfg.N+1)+j]
}

// LaneActive reports whether node j is active in lane `lane`.
func (p *BatchProtocol) LaneActive(lane, j int) bool {
	if j < 1 || j > p.cfg.N {
		return false
	}
	return p.pr.active[lane*(p.cfg.N+1)+j]
}

// SnapshotLane serialises lane `lane`'s full protocol state to JSON,
// byte-identical to Protocol.Snapshot of the per-run instance that ran the
// same inputs (pinned by the differential tests).
func (p *BatchProtocol) SnapshotLane(lane int) ([]byte, error) {
	if lane < 0 || lane >= p.lanes {
		return nil, fmt.Errorf("core: node %d: snapshot of lane %d, want 0..%d", p.cfg.ID, lane, p.lanes-1)
	}
	return json.Marshal(p.snapshot(lane, p.pr, p.snapAccuse, p.snapAge))
}
