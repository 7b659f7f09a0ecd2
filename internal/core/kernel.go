package core

// laneBuf holds one round's buffered controller observations for read and
// send alignment (Alg. 1 lines 16-17) in lane-packed plane form: the raw
// interface state (rows, presence mask, validity bits) and the aligned local
// syndrome derived from it. rows[j] is meaningful in a lane only where the
// lane's set bit for j holds; absent segments may hold garbage.
type laneBuf struct {
	rows []BitSyndrome
	set  uint64
	// ls is the validity vector observed in the buffered round.
	ls BitSyndrome
	// al is the aligned local syndrome computed in the buffered round (used
	// by send alignment, Alg. 1 line 9).
	al BitSyndrome
}

// laneKernel is the lane-packed Alg. 1 kernel: read alignment, matrix-row
// install, send alignment, next-round buffering and the dissemination
// history, for G independent runs of the same node bit-sliced into one plane
// word (lane r occupies bits [r·N, (r+1)·N)). Protocol's packed path is its
// one-lane case and BatchProtocol its G-lane case; both embed it, and the
// voting between install and dissemination is voteAllLanes. Per-run control
// flow (self column, read split at l_i) is hoisted into lane-replicated
// masks, so a run's fault outcome is a mask AND, never an `if`.
//
// The kernel also owns the configuration and the round cursor, which the
// scalar reference path of Protocol shares; a scalar instance never
// allocates the kernel's buffers.
type laneKernel struct {
	cfg   Config
	steps int

	// Lane-replicated masks, rebuilt by resetLanes from ID, L and Dynamic:
	// laneRep has bit r·N set for every live lane (the multiplicative lane
	// replicator), allB covers every live lane's node bits, selfB is the
	// node's own column in every lane, lowB marks the columns 1..l_i that
	// read alignment takes from the previous round, and laneAll is
	// PlaneMask(N), one lane's segment.
	laneRep uint64
	allB    uint64
	selfB   uint64
	lowB    uint64
	laneAll uint64

	// bufs double-buffers the alignment state: round k reads bufs[k%2]
	// (written in round k-1) and writes bufs[(k+1)%2].
	bufs [2]laneBuf
	// lastSent / prevSent are the dissemination payloads of the previous two
	// rounds; the one physically transmitted in round k-1 is this node's own
	// row of the diagnostic matrix.
	lastSent BitSyndrome
	prevSent BitSyndrome
}

// allocBufs sizes the alignment buffers for the configured N.
func (k *laneKernel) allocBufs() {
	for b := range k.bufs {
		k.bufs[b].rows = make([]BitSyndrome, k.cfg.N+1)
	}
}

// resetLanes rewinds the kernel to round StartRound with `lanes` live lanes:
// it derives the lane masks from the configuration and fills both buffers
// and the history with the all-Healthy syndrome.
func (k *laneKernel) resetLanes(lanes int) {
	n := k.cfg.N
	k.steps = 0
	k.laneAll = PlaneMask(n)
	k.laneRep = 0
	for r := 0; r < lanes; r++ {
		k.laneRep |= 1 << uint(r*n)
	}
	// Lane segments are disjoint, so replicating an n-bit mask into every
	// live lane is a single multiply by the lane replicator (no carries).
	k.allB = k.laneRep * k.laneAll
	k.selfB = k.laneRep << uint(k.cfg.ID-1)
	k.lowB = k.laneRep * PlaneMask(k.readPoint())

	hw := BitSyndrome{Op: k.allB, Known: k.allB}
	for b := range k.bufs {
		buf := &k.bufs[b]
		for j := 1; j < len(buf.rows); j++ {
			buf.rows[j] = hw
		}
		buf.set = k.allB
		buf.ls, buf.al = hw, hw
	}
	k.lastSent, k.prevSent = hw, hw
}

// copyFrom overwrites k's state with src's. Only the buffer the next round
// will read carries live state; the other one is fully rewritten before it
// is ever read again, so copying it would be dead work.
func (k *laneKernel) copyFrom(src *laneKernel) {
	bufs := k.bufs
	*k = *src
	k.bufs = bufs
	dst, from := &k.bufs[k.steps&1], &src.bufs[src.steps&1]
	copy(dst.rows, from.rows)
	dst.set, dst.ls, dst.al = from.set, from.ls, from.al
}

// readPoint is l_i as read alignment uses it: under dynamic scheduling the
// read point is pinned to round start (l = 0).
func (k *laneKernel) readPoint() int {
	if k.cfg.Dynamic {
		return 0
	}
	return k.cfg.L
}

// ownRow returns the syndromes this node physically transmitted in the
// previous round: the last written payload when the node's job runs before
// its sending slot, and the one before that otherwise (the write of round
// k-1 is only transmitted in round k).
func (k *laneKernel) ownRow() BitSyndrome {
	if k.cfg.SendCurrRound {
		return k.lastSent
	}
	return k.prevSent
}

// readAlign is phases 1 and 3, local detection and aggregation (read
// alignment, Alg. 1 lines 1-6): entries 1..l_i come from the previous read,
// the rest from the current one, so every aligned value refers to a message
// sent in round k-1. On planes the split is two mask merges; bits outside
// the live lanes' nodes are ignored. The aligned local syndrome is also
// stored where next round's send alignment expects it.
func (k *laneKernel) readAlign(present uint64, validity BitSyndrome) (alSet uint64, alLS BitSyndrome) {
	rd := &k.bufs[k.steps&1]
	validity = validity.normalized(k.allB)
	low := k.lowB
	hi := k.allB &^ low
	alSet = (rd.set & low) | (present & hi)
	alLS = BitSyndrome{
		Op:    (rd.ls.Op & low) | (validity.Op & hi),
		Known: (rd.ls.Known & low) | (validity.Known & hi),
	}
	k.bufs[(k.steps+1)&1].al = alLS
	return alSet, alLS
}

// installRows writes the round's diagnostic matrix into the 1-based planes
// op/know and returns its row-presence mask: row j's lane segment is live
// iff the lane's aligned presence bit for j is set, and the node's own row is
// always live — its locally buffered copy of the syndrome it physically
// transmitted in round k-1, available even when the transmission itself
// failed (Lemma 3). Compressing a row's presence bits onto the lane
// replicator and multiplying by the segment mask expands them into a plane
// mask, so absent segments are zeroed rather than branched around.
func (k *laneKernel) installRows(op, know []uint64, alSet uint64, rows []BitSyndrome) (rowSet uint64) {
	rd := &k.bufs[k.steps&1]
	rowSet = alSet | k.selfB
	l, own := k.readPoint(), k.ownRow()
	for j := 1; j <= k.cfg.N; j++ {
		row := rows[j]
		switch {
		case j == k.cfg.ID:
			row = own
		case j <= l:
			row = rd.rows[j]
		}
		seg := ((rowSet >> uint(j-1)) & k.laneRep) * k.laneAll
		op[j] = row.Op & row.Known & seg
		know[j] = row.Known & seg
	}
	return rowSet
}

// sendAlign is phase 2, dissemination (send alignment, Alg. 1 lines 7-10):
// it chooses the syndrome whose transmission round keeps all disseminated
// syndromes referring to the same diagnosed round. A node whose job runs
// before its sending slot writes the previous round's aligned syndrome —
// unless every node does (AllSendCurrRound), when the current one is sent.
func (k *laneKernel) sendAlign(alLS BitSyndrome) BitSyndrome {
	if k.cfg.SendCurrRound && !k.cfg.AllSendCurrRound {
		return k.bufs[k.steps&1].al
	}
	return alLS
}

// endRound buffers this round's raw observations for the next one (Alg. 1
// lines 16-17; readAlign already stored the aligned local syndrome), shifts
// the dissemination history by the syndrome just sent, and advances the
// round cursor.
func (k *laneKernel) endRound(present uint64, validity BitSyndrome, rows []BitSyndrome, sent BitSyndrome) {
	wr := &k.bufs[(k.steps+1)&1]
	wr.set = present & k.allB
	for j := 1; j <= k.cfg.N; j++ {
		wr.rows[j] = rows[j].normalized(k.allB)
	}
	wr.ls = validity.normalized(k.allB)
	k.prevSent, k.lastSent = k.lastSent, sent
	k.steps++
}
