package core

import "fmt"

// CopyFrom overwrites this protocol's complete run state with src's: round
// cursor, read-alignment buffer, dissemination history, accusation state,
// and every penalty/reward counter. Afterwards the two instances are
// behaviourally indistinguishable — stepping either with the same inputs
// produces the same outputs — and share no mutable memory, so they may
// diverge freely. It is the in-memory fast path of the checkpoint/restore
// pair: equivalent to Snapshot on src followed by RestoreProtocol on p
// (pinned by a differential test), but a flat state copy with zero
// steady-state allocations instead of a JSON round-trip.
//
// Both protocols must have been built for the same N and the same
// representation (packed or scalar); within that shape the configurations
// may differ — dst adopts src's. Telemetry attachments (SetMetrics) are
// per-instance and deliberately not copied.
func (p *Protocol) CopyFrom(src *Protocol) error {
	if p == src {
		return nil
	}
	if p.cfg.N != src.cfg.N {
		return fmt.Errorf("core: CopyFrom across system sizes (dst N=%d, src N=%d)", p.cfg.N, src.cfg.N)
	}
	if p.packed != src.packed {
		return fmt.Errorf("core: CopyFrom across representations (dst packed=%v, src packed=%v)", p.packed, src.packed)
	}
	// Only the buffers the next Step will read carry live state; the other
	// ones are fully rewritten before they are ever read again, so copying
	// them would be dead work.
	p.laneKernel.copyFrom(&src.laneKernel)
	if !p.packed {
		n := src.cfg.N
		dst, from := &p.scalar.bufs[p.steps&1], &src.scalar.bufs[src.steps&1]
		for j := 1; j <= n; j++ {
			dst.set[j] = from.set[j]
			if from.set[j] {
				copy(dst.dm[j], from.dm[j])
			}
		}
		copy(dst.ls, from.ls)
		copy(dst.al, from.al)
		copy(p.scalar.lastSent, src.scalar.lastSent)
		copy(p.scalar.prevSent, src.scalar.prevSent)
	}

	copy(p.accuse, src.accuse)
	copy(p.accusedAge, src.accusedAge)
	p.accuseMask = src.accuseMask
	p.agingMask = src.agingMask

	p.pr.copyFrom(src.pr)

	// The invariant-build activity history is observation state, not run
	// state; dropping it skips one round of the monotonicity check after a
	// restore, exactly like RestoreProtocol.
	p.invPrevActive = nil
	// An attached flight recorder re-baselines on the copied counters so the
	// wholesale state swap does not masquerade as penalty changes.
	if p.trace != nil {
		p.trace.resync(p.pr)
	}
	return nil
}

// CopyFrom is Protocol.CopyFrom for the gang path: it overwrites this batch
// protocol's run state — every lane's — with src's. Both instances must have
// been built for the same N (which fixes the lane capacity); dst adopts
// src's configuration and live lane count. Per-lane telemetry attachments
// are not copied. Zero allocations.
func (p *BatchProtocol) CopyFrom(src *BatchProtocol) error {
	if p == src {
		return nil
	}
	if p.cfg.N != src.cfg.N {
		return fmt.Errorf("core: batch CopyFrom across system sizes (dst N=%d, src N=%d)", p.cfg.N, src.cfg.N)
	}
	// op/know are per-round scratch fully rewritten by the next warm
	// StepBatch; snapAccuse/snapAge hold the constant diagnostic-mode
	// accusation state and never change after construction.
	p.laneKernel.copyFrom(&src.laneKernel)
	p.lanes = src.lanes
	p.pr.copyFrom(src.pr)
	return nil
}
