// Lane-packed batched simulation front end: one BatchDiagCluster advances
// G = ⌊64/N⌋ independent Monte-Carlo repetitions ("lanes") of the same
// diagnostic cluster per TDMA round. Each node is a single
// core.BatchProtocol whose syndrome planes hold all lanes side by side, so
// one StepBatch call per node per round replaces G per-run protocol
// executions, and the TDMA delivery work is done once per (lane, slot)
// instead of once per (lane, slot, receiver).
//
// The batched front end is an executable optimisation of the lock-step
// Engine, not a replacement: its observable outputs — collector contents,
// ground-truth rows, penalty counters, telemetry — are pinned byte-exact to
// G per-run Engine executions by TestBatchClusterEquivalence.
//
// Around the protocol kernel the cluster stays word-parallel too: lanes
// whose disturbances are all slot maskers (fault.Train) are delivered with a
// handful of plane operations per slot, the run's health vectors and ground
// truth are kept as lane-packed records, and AuditGang checks Theorem 1 on
// every lane at once. Per-lane collectors and truth rows are views built
// from those records on demand.
package sim

import (
	"bytes"
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
	"ttdiag/internal/tdma"
)

// collRing is the depth of the per-node collision-verdict ring, mirroring
// the tdma.Controller history depth.
const collRing = 16

// slotMasker is a disturbance whose effect on a round is fully described by
// the slots it hits: a transmission in a masked slot is locally detectable
// by every receiver and trips the sender's collision detector, any other
// passes through untouched — exactly a fault.Train. A lane whose chain holds
// only slot maskers is delivered from one OR-ed mask per round instead of
// running its chain per slot.
type slotMasker interface {
	SlotMask(sched *tdma.Schedule, round int) uint64
}

// hvRecord is one observer's consistent health vectors for one diagnosed
// round, lane-packed, with the segments of the lanes that recorded it
// (those still inside their horizon when the vector was produced).
type hvRecord struct {
	op, known, lanes uint64
}

// collVerdict is one entry of a node's collision-verdict ring: the lanes in
// which the node's own transmission of round `round` collided.
type collVerdict struct {
	round int
	lanes uint64
}

// batchNode is one node's gang state: its lane-packed protocol and what
// sets the node's view apart from the shared receiver planes.
type batchNode struct {
	proto *core.BatchProtocol
	lag   int // diagnosis lag

	// ign marks the senders this observer has stopped listening to
	// (monotone when observe is false, constant zero otherwise), ownClear
	// the lanes in which the node's last own-slot transmission collided
	// (the sender-side loopback invalidation), both lane-packed at the
	// sender's column.
	ign, ownClear uint64

	// staged is the node's outbox: the lane-packed wire word its next
	// transmission carries (Op∧Known of the last StepBatch send).
	staged uint64

	// coll is the collision-verdict ring, mirroring the controller's
	// 16-deep history.
	coll [collRing]collVerdict
}

// batchLane is one lane's per-repetition state: what the caller attached
// and, once requested, the views over the gang records.
type batchLane struct {
	dist    tdma.Disturbances
	maskers []slotMasker // the slot maskers of dist
	horizon int          // rounds to record (run length)
	view    *laneView    // allocated on first use
}

// laneView is one lane's per-run outputs in per-run form. The collector's
// isolations and reintegrations are appended as they happen; its health
// vectors and the truth rows are built from the gang records on first
// request per run. hvs backs the unpacked health vectors of col, which owns
// them until the next ResetBatch; truth is the flat ground-truth rows, N+1
// per recorded round.
type laneView struct {
	col   Collector
	truth []tdma.OutcomeClass
	hvs   core.Syndrome
}

// BatchDiagCluster is a diagnostic cluster whose repetitions run
// lane-packed: every node's protocol advances all lanes with one StepBatch
// per round, and the bus delivery is evaluated once per slot for all lanes.
//
// The shared-plane layout is only sound when every attached disturbance is
// receiver-uniform — it degrades the delivery identically for every
// receiver (fault.Train and fault.MaliciousSyndrome are; a
// receiver-selective disturbance like fault.ReceiverBlind is not, and such
// campaigns must stay on the per-run Engine). See AddLaneDisturbance.
type BatchDiagCluster struct {
	cfg   ClusterConfig // normalized, diagnostic mode; Ls cluster-owned
	sched *tdma.Schedule
	n     int
	max   int // lane capacity, BatchLanes(N)
	lanes int // live lanes of the current gang
	round int

	node []batchNode // 1-based; entry 0 is unused

	// observe mirrors the per-run activity policy: with a reintegration
	// threshold the runners keep listening to isolated nodes, without one
	// an isolation permanently drops the sender from the observer's view.
	observe bool

	laneAll uint64 // PlaneMask(N), one lane's segment
	laneRep uint64 // bit r·N set for every live lane
	allB    uint64 // laneRep · laneAll: every live lane's node bits

	// Shared receiver state. Because disturbances are receiver-uniform,
	// all receivers observe the same delivery: rows[j] holds sender j's
	// last decoded wire word lane-packed, presentB the lanes·senders whose
	// stored payload is valid and decodable.
	rows     []core.BitSyndrome // 1-based by interface variable
	presentB uint64

	lane []batchLane // per lane, MaxLanes entries

	// Delivery paths. A lane whose chain holds only slot maskers is a mask
	// lane; any other disturbance makes it a chain lane (bit r of
	// chainLanes), delivered by running its chain per slot. hitPlane is the
	// current round's hit slots of the mask lanes, lane-packed (bit r·N+s-1
	// = lane r, slot s).
	chainLanes uint64
	maskRep    uint64 // bit r·N set for every live mask lane
	hitPlane   uint64
	liveSeg    uint64 // segments of the lanes recording the current round

	// The records of the gang, the single source of truth for the lane
	// views and the audit: recs[d·(N+1)+i] holds observer i's vectors for
	// diagnosed round d, truthB[k]/truthM[k] the lane-packed slots whose
	// round-k transmission was benign/malicious for all receivers (every
	// other slot was correct).
	recs   []hvRecord
	truthB []uint64
	truthM []uint64

	// Lanes whose collector/truth views are built for the current run.
	colViews, truthViews uint64

	// finalPen holds the penalty counters captured at each lane's horizon,
	// flat (lane·(N+1)+observer)·(N+1)+j, allocated at the first capture.
	finalPen []int64

	payload []byte // EncodedLen(N) transmission scratch
	tx      tdma.Transmission
}

// NewBatchDiagCluster builds a lane-packed diagnostic cluster with capacity
// for BatchLanes(N) repetitions per gang. The configuration space matches
// NewReusableDiagnosticCluster except that Mode is forced to diagnostic and
// trace sinks are not supported (tracing campaigns use the per-run engine).
// The configuration stays caller-owned: its slot layout is copied.
//
//ttdiag:noretain params
func NewBatchDiagCluster(cfg ClusterConfig) (*BatchDiagCluster, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	norm.Mode = core.ModeDiagnostic
	if norm.Sink != nil {
		return nil, fmt.Errorf("sim: batched cluster does not support trace sinks")
	}
	norm.Ls = append([]int(nil), norm.Ls...)
	maxLanes := core.BatchLanes(norm.N)
	if maxLanes < 1 {
		return nil, fmt.Errorf("sim: N=%d does not fit a 64-bit lane plane", norm.N)
	}
	sched, err := newSchedule(norm)
	if err != nil {
		return nil, err
	}
	c := &BatchDiagCluster{
		cfg:     norm,
		sched:   sched,
		n:       norm.N,
		max:     maxLanes,
		node:    make([]batchNode, norm.N+1),
		observe: norm.PR.ReintegrationThreshold > 0,
		laneAll: core.PlaneMask(norm.N),
		rows:    make([]core.BitSyndrome, norm.N+1),
		lane:    make([]batchLane, maxLanes),
		payload: make([]byte, core.EncodedLen(norm.N)),
	}
	for id := 1; id <= norm.N; id++ {
		nc := norm.nodeConfig(id)
		p, err := core.NewBatchProtocol(nc, maxLanes)
		if err != nil {
			return nil, err
		}
		c.node[id].proto = p
		c.node[id].lag = nc.Lag()
	}
	c.ResetBatch(maxLanes)
	return c, nil
}

// Config returns the cluster's normalized configuration.
func (c *BatchDiagCluster) Config() ClusterConfig { return c.cfg }

// Schedule returns the cluster's TDMA schedule.
func (c *BatchDiagCluster) Schedule() *tdma.Schedule { return c.sched }

// MaxLanes returns the gang capacity ⌊64/N⌋.
func (c *BatchDiagCluster) MaxLanes() int { return c.max }

// Lanes returns the live lane count of the current gang.
func (c *BatchDiagCluster) Lanes() int { return c.lanes }

// Proto returns node id's lane-packed protocol, e.g. to attach per-lane
// telemetry via SetLaneMetrics before Run (attachments survive ResetBatch).
func (c *BatchDiagCluster) Proto(id int) *core.BatchProtocol { return c.node[id].proto }

// ResetBatch rewinds the cluster for the next gang of `lanes` repetitions
// (a ragged final gang shrinks the lane count): protocols restart their
// warm-up, disturbances and horizons are dropped, records, collectors and
// ground truth are emptied and the bootstrap all-healthy outboxes are
// re-staged.
func (c *BatchDiagCluster) ResetBatch(lanes int) error {
	if lanes < 1 || lanes > c.max {
		return fmt.Errorf("sim: gang of %d lanes outside 1..%d", lanes, c.max)
	}
	c.lanes = lanes
	c.round = 0
	c.laneRep = 0
	for r := 0; r < lanes; r++ {
		c.laneRep |= 1 << uint(r*c.n)
	}
	c.allB = c.laneRep * c.laneAll
	for id := 1; id <= c.n; id++ {
		nd := &c.node[id]
		nd.proto.Reset(lanes)
		nd.ign, nd.ownClear = 0, 0
		// The bootstrap outbox is the all-healthy syndrome in every lane,
		// mirroring bootstrapOutboxes on the per-run path.
		nd.staged = c.allB
		c.rows[id] = core.BitSyndrome{Op: 0, Known: c.allB}
		for i := range nd.coll {
			nd.coll[i].round = -1
		}
	}
	c.presentB = 0
	for r := range c.lane {
		l := &c.lane[r]
		l.dist = l.dist[:0]
		l.maskers = l.maskers[:0]
		l.horizon = 0
		if l.view != nil {
			l.view.col.Reset()
		}
	}
	c.chainLanes, c.maskRep = 0, c.laneRep
	c.recs = c.recs[:0]
	c.truthB = c.truthB[:0]
	c.truthM = c.truthM[:0]
	c.colViews, c.truthViews = 0, 0
	return nil
}

// AddLaneDisturbance appends a disturbance to one lane's bus filter chain.
//
// The disturbance must be receiver-uniform: Deliver must not depend on the
// rcv argument, because the batched bus evaluates it once per (lane, slot)
// with a representative receiver and shares the result across all
// receivers. fault.Train (and any burst train) and fault.MaliciousSyndrome
// qualify; fault.ReceiverBlind does not. The lane's delivery path follows
// from the disturbance types alone: trains keep it on the mask path, any
// other disturbance moves it to the per-slot chain.
func (c *BatchDiagCluster) AddLaneDisturbance(lane int, d tdma.Disturbance) {
	l := &c.lane[lane]
	l.dist = append(l.dist, d)
	if m, ok := d.(slotMasker); ok {
		l.maskers = append(l.maskers, m)
	} else {
		c.chainLanes |= 1 << uint(lane)
		c.maskRep &^= 1 << uint(lane*c.n)
	}
}

// SetLaneHorizon pins one lane's repetition length in rounds: the lane's
// ground truth, collector records and telemetry cover rounds 0..rounds-1,
// and its final penalty counters are captured when that round completes.
// Run executes to the maximum horizon over the gang; lanes keep stepping
// past their own horizon (the segments are independent) but record nothing.
func (c *BatchDiagCluster) SetLaneHorizon(lane, rounds int) {
	c.lane[lane].horizon = rounds
}

// LaneCollector returns the cluster-owned collector of one lane: the
// health vectors, isolations and reintegrations a per-run repetition's
// collector holds. The health vectors are unpacked from the gang records on
// the first call after a Run; the collector stays valid until ResetBatch.
func (c *BatchDiagCluster) LaneCollector(lane int) *Collector {
	l := c.view(lane)
	col := &l.col
	bit := uint64(1) << uint(lane)
	if c.colViews&bit != 0 {
		return col
	}
	c.colViews |= bit
	for _, byObs := range col.ConsHV {
		clear(byObs)
	}
	col.ConsHV = col.ConsHV[:0]
	w, sh := c.n+1, uint(lane*c.n)
	count := 0
	for _, rec := range c.recs {
		count += int(rec.lanes >> sh & 1)
	}
	if cap(l.hvs) < count*w {
		l.hvs = make(core.Syndrome, count*w)
	}
	slab := l.hvs[:count*w]
	for i, rec := range c.recs {
		if rec.lanes>>sh&1 == 0 {
			continue
		}
		hv := slab[:w:w]
		slab = slab[w:]
		core.BitSyndrome{Op: rec.op >> sh & c.laneAll, Known: rec.known >> sh & c.laneAll}.UnpackInto(hv)
		col.setHV(i/w, i%w, hv)
	}
	return col
}

// view returns one lane's views, allocating them on first use.
func (c *BatchDiagCluster) view(lane int) *laneView {
	l := &c.lane[lane]
	if l.view == nil {
		l.view = &laneView{}
	}
	return l.view
}

// LaneTruth returns a TruthSource view over one lane's recorded ground
// truth, interchangeable with the per-run Engine for the audits and the
// system-level metrics observers.
func (c *BatchDiagCluster) LaneTruth(lane int) TruthSource {
	return laneTruth{c: c, lane: lane}
}

// laneRows returns one lane's ground-truth rows (flat, N+1 per recorded
// round), unpacking them from the truth planes on the first call per Run.
func (c *BatchDiagCluster) laneRows(lane int) []tdma.OutcomeClass {
	l := c.view(lane)
	bit := uint64(1) << uint(lane)
	if c.truthViews&bit != 0 {
		return l.truth
	}
	c.truthViews |= bit
	rows := l.truth[:0]
	sh := uint(lane * c.n)
	for k := 0; k < min(c.lane[lane].horizon, c.round); k++ {
		benign, malicious := c.truthB[k]>>sh, c.truthM[k]>>sh
		rows = append(rows, 0)
		for s := uint(0); s < uint(c.n); s++ {
			class := tdma.OutcomeCorrect
			if benign>>s&1 != 0 {
				class = tdma.OutcomeBenign
			} else if malicious>>s&1 != 0 {
				class = tdma.OutcomeMalicious
			}
			rows = append(rows, class)
		}
	}
	l.truth = rows
	return rows
}

// LaneFinalPenalty returns observer's penalty counter for node j in one
// lane, captured at the lane's horizon (the value a per-run repetition
// ends with).
func (c *BatchDiagCluster) LaneFinalPenalty(lane, observer, j int) int64 {
	if c.finalPen == nil {
		return 0 // no lane has reached its horizon yet
	}
	return c.finalPen[(lane*(c.n+1)+observer)*(c.n+1)+j]
}

// laneTruth adapts one lane's recorded rows to the TruthSource interface.
type laneTruth struct {
	c    *BatchDiagCluster
	lane int
}

func (t laneTruth) Round() int { return len(t.c.laneRows(t.lane)) / (t.c.n + 1) }

func (t laneTruth) Truth(round int) []tdma.OutcomeClass {
	w := t.c.n + 1
	rows := t.c.laneRows(t.lane)
	if round < 0 || (round+1)*w > len(rows) {
		return nil
	}
	return rows[round*w : (round+1)*w : (round+1)*w]
}

// Run executes the gang to the maximum lane horizon. It is the batched
// counterpart of Engine.RunRounds over every repetition of the gang.
func (c *BatchDiagCluster) Run() error {
	maxH := 0
	for r := 0; r < c.lanes; r++ {
		if c.lane[r].horizon > maxH {
			maxH = c.lane[r].horizon
		}
	}
	c.colViews, c.truthViews = 0, 0
	for c.round < maxH {
		k := c.round
		var live, liveSeg uint64
		for r := 0; r < c.lanes; r++ {
			if c.lane[r].horizon == k {
				// The lane's repetition ended last round: detach its
				// telemetry so rounds past the horizon emit nothing,
				// exactly like a per-run repetition that has stopped.
				for id := 1; id <= c.n; id++ {
					c.node[id].proto.SetLaneMetrics(r, nil)
				}
			}
			if k < c.lane[r].horizon {
				live |= 1 << uint(r)
				liveSeg |= c.laneAll << uint(r*c.n)
			}
		}
		c.liveSeg = liveSeg
		c.hitPlane = c.roundHits(k, live)
		// The mask lanes' ground truth is their hit plane; chain lanes add
		// their classes slot by slot.
		c.truthB = append(c.truthB, c.hitPlane)
		c.truthM = append(c.truthM, 0)
		if err := c.runRound(k); err != nil {
			c.truthB, c.truthM = c.truthB[:k], c.truthM[:k]
			return err
		}
		c.round++
		for r := 0; r < c.lanes; r++ {
			if c.lane[r].horizon == c.round {
				c.captureFinal(r)
			}
		}
	}
	return nil
}

// roundHits ORs every live mask lane's slot masks for round k into a
// lane-packed hit plane. Mask lanes past their horizon are left clean: they
// record nothing, so their deliveries are unobservable.
func (c *BatchDiagCluster) roundHits(k int, live uint64) uint64 {
	var hit uint64
	for rem := live &^ c.chainLanes; rem != 0; rem &= rem - 1 {
		r := bits.TrailingZeros64(rem)
		var m uint64
		for _, d := range c.lane[r].maskers {
			m |= d.SlotMask(c.sched, k)
		}
		hit |= (m & c.laneAll) << uint(r*c.n)
	}
	return hit
}

// runRound advances every lane by one TDMA round, mirroring
// Engine.RunRound's slot walk: diagnostic jobs at their positions, then the
// slot transmission, N times.
func (c *BatchDiagCluster) runRound(k int) error {
	for pos := 0; pos <= c.n; pos++ {
		for id := 1; id <= c.n; id++ {
			if c.cfg.Ls[id-1] == pos {
				if err := c.runJob(k, id); err != nil {
					return err
				}
			}
		}
		if pos == c.n {
			break
		}
		c.transmitSlot(k, pos+1)
	}
	return nil
}

// runJob executes node id's diagnostic job for every lane at once.
func (c *BatchDiagCluster) runJob(k, id int) error {
	nd := &c.node[id]
	present := c.presentB &^ (nd.ign | nd.ownClear)
	var collF uint64
	if d := k - nd.lag; d >= 0 {
		if v := nd.coll[d%collRing]; v.round == d {
			collF = v.lanes
		}
	}
	out, err := nd.proto.StepBatch(core.BatchRoundInput{
		Round:           k,
		Rows:            c.rows,
		Present:         present,
		Validity:        core.BitSyndrome{Op: present, Known: c.allB},
		CollisionFaulty: collF,
	})
	if err != nil {
		return fmt.Errorf("sim: node %d round %d: %w", id, k, err)
	}
	nd.staged = out.SendOp & out.SendKnown
	if !c.observe {
		// No reintegration: an isolation permanently drops the sender
		// from this observer's view, which is what the per-run
		// SetIgnored(j, true) does to the controller.
		nd.ign |= c.allB &^ out.ActiveMask
	}
	if c.liveSeg == 0 {
		return nil
	}
	if out.Warm {
		i := out.DiagnosedRound*(c.n+1) + id
		if i >= len(c.recs) {
			c.recs = append(c.recs, make([]hvRecord, i+1-len(c.recs))...)
		}
		c.recs[i] = hvRecord{op: out.ConsOp, known: out.ConsKnown, lanes: c.liveSeg}
	}
	if (out.IsolatedMask|out.ReintegratedMask)&c.liveSeg != 0 {
		c.recordDecisions(id, &out)
	}
	return nil
}

// recordDecisions appends one job's isolations and reintegrations to the
// collectors of the lanes still inside their horizon.
func (c *BatchDiagCluster) recordDecisions(id int, out *core.BatchRoundOutput) {
	for r := 0; r < c.lanes; r++ {
		if out.Round >= c.lane[r].horizon {
			continue
		}
		col := &c.view(r).col
		for iso := out.LaneIsolated(r, c.n); iso != 0; iso &= iso - 1 {
			j := bits.TrailingZeros64(iso) + 1
			col.Isolations = append(col.Isolations, Isolation{Observer: id, Node: j, Round: out.Round})
		}
		for re := out.LaneReintegrated(r, c.n); re != 0; re &= re - 1 {
			j := bits.TrailingZeros64(re) + 1
			col.Reintegrations = append(col.Reintegrations, Isolation{Observer: id, Node: j, Round: out.Round})
		}
	}
}

// transmitSlot broadcasts node s's staged outbox in every lane and folds
// the delivery into the shared planes, the sender's collision ring and the
// round's ground truth. Mask lanes take the word path: a hit slot is invalid
// for every receiver and a collision for the sender, any other slot carries
// the staged word unaltered. Chain lanes run their disturbances.
func (c *BatchDiagCluster) transmitSlot(k, s int) {
	col := uint(s - 1)
	hitRep := c.hitPlane >> col & c.maskRep
	validRep := c.maskRep &^ hitRep
	collRep := hitRep
	nd := &c.node[s]
	wireWord := nd.staged & (validRep * c.laneAll)
	if c.chainLanes != 0 {
		w, v, coll := c.transmitChain(k, s)
		wireWord |= w
		validRep |= v
		collRep |= coll
	}
	c.presentB = (c.presentB &^ (c.laneRep << col)) | validRep<<col
	c.rows[s] = core.BitSyndrome{Op: wireWord, Known: c.allB}
	// Sender-side collision feedback: the controller cannot read its own
	// message back, so the sender's stored copy of its own slot is
	// invalidated (other receivers keep their deliveries), and the verdict
	// enters the node's collision history for the Lemma 3 fallback.
	nd.ownClear = collRep << col
	var collLanes uint64
	for ; collRep != 0; collRep &= collRep - 1 {
		collLanes |= 1 << uint(bits.TrailingZeros64(collRep)/c.n)
	}
	nd.coll[k%collRing] = collVerdict{round: k, lanes: collLanes}
}

// transmitChain delivers slot s in every chain lane: encode the lane's wire
// word, run its disturbance chain once (receiver-uniform, representative
// receiver 1) and record the outcome class in the truth planes. It returns
// the delivered wire words lane-packed, and the valid and collided lanes as
// bit r·N per lane.
func (c *BatchDiagCluster) transmitChain(k, s int) (wireWord, validRep, collRep uint64) {
	start, end := c.sched.SlotWindow(k, s)
	n := c.n
	encLen := len(c.payload)
	// The transmission is lane-invariant (only the payload bytes differ, and
	// those are re-encoded in place), and no Disturbance mutates it, so it is
	// built once per slot rather than once per lane.
	c.tx = tdma.Transmission{
		Sender: tdma.NodeID(s), Round: k, Slot: s,
		Start: start, End: end, Payload: c.payload,
	}
	clean := tdma.Delivery{Valid: true, Payload: c.payload}
	var benign, malicious uint64
	for rem := c.chainLanes; rem != 0; rem &= rem - 1 {
		r := bits.TrailingZeros64(rem)
		sh := uint(r * n)
		laneW := c.node[s].staged >> sh & c.laneAll
		core.BitSyndrome{Op: laneW, Known: c.laneAll}.EncodeInto(c.payload)
		dist := c.lane[r].dist
		d := dist.Deliver(&c.tx, 1, clean)
		untouched := false
		if d.Valid && len(d.Payload) == encLen {
			if untouched = bytes.Equal(d.Payload, c.payload); untouched {
				// The chain passed the encoding through unaltered, so it
				// decodes back to exactly the word we encoded — skip the
				// wire-format parse on this clean-delivery fast path.
				validRep |= 1 << sh
				wireWord |= laneW << sh
			} else if row, err := core.BitSyndromeFromWire(d.Payload, n); err == nil {
				validRep |= 1 << sh
				wireWord |= row.Op << sh
			}
		}
		if dist.SenderCollision(&c.tx, false) {
			collRep |= 1 << sh
		}
		// Ground truth over the non-sender receivers, all of which observe
		// this same delivery: invalid is locally detectable (benign),
		// altered payload bytes are malicious.
		if !d.Valid {
			benign |= 1 << sh
		} else if !untouched {
			malicious |= 1 << sh
		}
	}
	col := uint(s - 1)
	c.truthB[k] |= benign << col
	c.truthM[k] |= malicious << col
	return wireWord, validRep, collRep
}

// captureFinal snapshots one lane's per-observer penalty counters at its
// horizon, before later rounds of longer lanes keep mutating the shared
// counter planes.
func (c *BatchDiagCluster) captureFinal(r int) {
	if c.finalPen == nil {
		c.finalPen = make([]int64, c.max*(c.n+1)*(c.n+1))
	}
	for id := 1; id <= c.n; id++ {
		for j := 1; j <= c.n; j++ {
			c.finalPen[(r*(c.n+1)+id)*(c.n+1)+j] = c.node[id].proto.LanePenalty(r, j)
		}
	}
}
