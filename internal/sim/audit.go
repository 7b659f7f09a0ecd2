package sim

import (
	"fmt"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/membership"
	"ttdiag/internal/tdma"
)

func newSchedule(cfg ClusterConfig) (*tdma.Schedule, error) {
	if len(cfg.SlotLens) > 0 {
		if len(cfg.SlotLens) != cfg.N {
			return nil, fmt.Errorf("sim: SlotLens has %d entries, want %d", len(cfg.SlotLens), cfg.N)
		}
		return tdma.NewCustomSchedule(cfg.SlotLens)
	}
	return tdma.NewSchedule(cfg.N, cfg.RoundLen)
}

func tdmaID(id int) tdma.NodeID { return tdma.NodeID(id) }

// Isolation records one isolation (or reintegration) decision.
type Isolation struct {
	// Observer is the node that took the decision.
	Observer int
	// Node is the isolated node.
	Node int
	// Round is the execution round of the decision.
	Round int
}

// Collector gathers per-round protocol outputs from a cluster for auditing
// and metric extraction. Install its hooks before running the engine.
type Collector struct {
	// ConsHV[diagnosedRound][observer] is the consistent health vector the
	// observer computed for that round. The outer slice covers rounds up to
	// the last diagnosed one; the inner slice is 1-based by observer and is
	// nil — or, on a reused collector, all-nil — for rounds nobody has
	// diagnosed (use RoundHVs for bounds-safe reads and check entries for
	// nil).
	//
	// A protocol's outputs are only valid for three more Steps, so the hooks
	// record copies, carved from a slab owned by the hooked runner (see
	// hvSlab): they stay valid through the run and the runner's next
	// ResetForRun, until the runner records again.
	ConsHV [][]core.Syndrome
	// Isolations and Reintegrations in decision order.
	Isolations     []Isolation
	Reintegrations []Isolation
}

// hvSlab is the reusable store for the health vectors a Collector records
// from one runner. It lives with the runner rather than the collector, so
// collectors stay plain values that compare equal across fresh and reused
// clusters. A full slab is replaced by one twice its size (vectors already
// recorded keep the old one alive); reset rewinds to its start.
type hvSlab struct {
	buf  core.Syndrome
	used int
}

// copy returns a slab-backed copy of hv.
func (s *hvSlab) copy(hv core.Syndrome) core.Syndrome {
	w := len(hv)
	if s.used+w > len(s.buf) {
		s.buf = make(core.Syndrome, max(2*len(s.buf), 16*w))
		s.used = 0
	}
	dst := s.buf[s.used : s.used+w : s.used+w]
	s.used += w
	copy(dst, hv)
	return dst
}

func (s *hvSlab) reset() { s.used = 0 }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Reset empties the collector for reuse in the next campaign repetition,
// keeping the recorded-round storage allocated. A reset collector is
// observationally identical to a fresh one.
func (c *Collector) Reset() {
	for _, byObs := range c.ConsHV {
		for j := range byObs {
			byObs[j] = nil
		}
	}
	c.ConsHV = c.ConsHV[:0]
	c.Isolations = c.Isolations[:0]
	c.Reintegrations = c.Reintegrations[:0]
}

// RoundHVs returns the health vectors recorded for a diagnosed round,
// indexed by observer (nil entries for observers that recorded nothing), or
// nil when no observer diagnosed the round.
func (c *Collector) RoundHVs(round int) []core.Syndrome {
	if round < 0 || round >= len(c.ConsHV) {
		return nil
	}
	return c.ConsHV[round]
}

// HookDiag installs the collector on a DiagRunner.
func (c *Collector) HookDiag(observer int, r *DiagRunner) {
	r.OnOutput = func(out core.RoundOutput) { c.record(observer, out, &r.hvs) }
}

// HookMembership installs the collector on a MembershipRunner.
func (c *Collector) HookMembership(observer int, r *MembershipRunner) {
	r.OnOutput = func(out membership.Output) { c.record(observer, out.Diag, &r.hvs) }
}

// setHV stores one observer's consistent health vector for a diagnosed
// round, growing the recorded-round storage as needed. Shared by the
// per-run hook path (record) and the lane-packed batch cluster.
func (c *Collector) setHV(d, observer int, hv core.Syndrome) {
	for len(c.ConsHV) <= d {
		if len(c.ConsHV) < cap(c.ConsHV) {
			// Re-extend over storage kept by Reset: the inner slice is
			// already allocated (and cleared), so reuse it.
			c.ConsHV = c.ConsHV[:len(c.ConsHV)+1]
		} else {
			c.ConsHV = append(c.ConsHV, nil)
		}
	}
	if len(c.ConsHV[d]) != len(hv) {
		c.ConsHV[d] = make([]core.Syndrome, len(hv))
	}
	c.ConsHV[d][observer] = hv
}

func (c *Collector) record(observer int, out core.RoundOutput, slab *hvSlab) {
	if out.ConsHV != nil {
		c.setHV(out.DiagnosedRound, observer, slab.copy(out.ConsHV))
	}
	for _, j := range out.Isolated {
		c.Isolations = append(c.Isolations, Isolation{Observer: observer, Node: j, Round: out.Round})
	}
	for _, j := range out.Reintegrated {
		c.Reintegrations = append(c.Reintegrations, Isolation{Observer: observer, Node: j, Round: out.Round})
	}
}

// FirstIsolation returns the earliest round in which any observer isolated
// the given node, or -1.
func (c *Collector) FirstIsolation(nodeID int) int {
	first := -1
	for _, iso := range c.Isolations {
		if iso.Node != nodeID {
			continue
		}
		if first == -1 || iso.Round < first {
			first = iso.Round
		}
	}
	return first
}

// FirstIsolationTime converts FirstIsolation into simulated time using the
// engine's schedule (the start of the decision round), or -1 if never.
func (c *Collector) FirstIsolationTime(nodeID int, sched *tdma.Schedule) time.Duration {
	round := c.FirstIsolation(nodeID)
	if round < 0 {
		return -1
	}
	return sched.RoundStart(round)
}

// TruthSource is the ground-truth record one simulated run leaves behind:
// how many rounds executed and, per executed round, the outcome class of
// every slot transmission (1-based by slot; see Engine.Truth). The lock-step
// Engine is one source; the lane-packed batch cluster exposes one source per
// lane.
type TruthSource interface {
	// Round returns the number of executed rounds.
	Round() int
	// Truth returns the executed round's outcome classes (1-based by slot),
	// or nil for rounds not executed. The row may alias run-owned storage —
	// callers must not retain it across runs.
	Truth(round int) []tdma.OutcomeClass
}

// AuditTheorem1 checks the three properties of the consistent health vector
// (Theorem 1) on every diagnosed round in [fromRound, toRound):
//
//   - consistency: every obedient observer produced the same vector;
//   - completeness: ground-truth benign faulty senders are diagnosed faulty;
//   - correctness: ground-truth correct senders are diagnosed healthy.
//
// Rounds with asymmetric or malicious ground truth are only checked for
// consistency, as the theorem allows either agreed verdict there. The
// obedient slice lists the observers whose outputs are trustworthy (all
// nodes, in campaigns without Byzantine protocol instances).
func AuditTheorem1(src TruthSource, col *Collector, obedient []int, fromRound, toRound int) error {
	for d := fromRound; d < toRound; d++ {
		truth := src.Truth(d)
		if truth == nil {
			return fmt.Errorf("sim: no ground truth for round %d", d)
		}
		byObs := col.RoundHVs(d)
		if byObs == nil {
			return fmt.Errorf("sim: no health vectors recorded for round %d", d)
		}
		var ref core.Syndrome
		var refObs int
		for _, obs := range obedient {
			hv := byObs[obs]
			if hv == nil {
				return fmt.Errorf("sim: observer %d produced no health vector for round %d", obs, d)
			}
			if ref == nil {
				ref, refObs = hv, obs
				continue
			}
			if !hv.Equal(ref) {
				return fmt.Errorf("sim: consistency violated for round %d: observer %d says %v, observer %d says %v",
					d, refObs, ref, obs, hv)
			}
		}
		for slot := 1; slot < len(truth); slot++ {
			switch truth[slot] {
			case tdma.OutcomeBenign:
				if ref[slot] != core.Faulty {
					return fmt.Errorf("sim: completeness violated: round %d node %d was benign faulty but diagnosed %v",
						d, slot, ref[slot])
				}
			case tdma.OutcomeCorrect:
				if ref[slot] != core.Healthy {
					return fmt.Errorf("sim: correctness violated: round %d node %d was correct but diagnosed %v",
						d, slot, ref[slot])
				}
			}
		}
	}
	return nil
}

// AuditGang is AuditTheorem1 for every live lane of a batched gang at once:
// lane r is audited over its own window [from[r], to[r]) against the gang's
// lane-packed records, one word operation per (round, observer) instead of
// one unpacked vector per (lane, round, observer). It returns the failing
// lanes (bit r = lane r) and sets errs[r] to the lane's error, nil when it
// passes. The packed check only decides pass or fail: a failing lane's error
// is AuditTheorem1's own on the lane's views, so every message comes from a
// single implementation. from, to and errs need an entry per live lane.
func (c *BatchDiagCluster) AuditGang(obedient []int, from, to []int, errs []error) uint64 {
	n, w := c.n, c.n+1
	var bad uint64 // plane segments of the lanes with a violation
	lo, hi := c.round, 0
	for r := 0; r < c.lanes; r++ {
		errs[r] = nil
		if from[r] >= to[r] {
			continue
		}
		if from[r] < 0 || to[r] > c.round {
			bad |= c.laneAll << uint(r*n) // rounds without ground truth
		}
		lo, hi = min(lo, max(from[r], 0)), max(hi, min(to[r], c.round))
	}
	for _, obs := range obedient {
		if obs < 1 || obs > n {
			// Outside the packed records; let the reference decide.
			bad = c.allB
		}
	}
	if len(obedient) == 0 {
		bad = c.allB
	}
	for d := lo; d < hi && bad != c.allB; d++ {
		var act uint64 // segments of the lanes auditing round d
		for r := 0; r < c.lanes; r++ {
			if from[r] <= d && d < to[r] {
				act |= c.laneAll << uint(r*n)
			}
		}
		// A lane records health vectors only inside its horizon, so a lane
		// without ground truth for round d fails the record checks below.
		// A missing record has no lane bits, so it fails every lane.
		rec := func(obs int) hvRecord {
			if i := d*w + obs; i < len(c.recs) {
				return c.recs[i]
			}
			return hvRecord{}
		}
		ref := rec(obedient[0])
		bad |= act &^ ref.lanes
		for _, obs := range obedient[1:] {
			hv := rec(obs)
			bad |= act &^ hv.lanes
			bad |= act & (hv.known ^ ref.known | (hv.op^ref.op)&ref.known)
		}
		benign, malicious := c.truthB[d], c.truthM[d]
		faulty, healthy := ref.known&^ref.op, ref.known&ref.op
		bad |= act & (benign&^faulty | ^benign&^malicious&^healthy)
	}
	var failed uint64
	for r := 0; r < c.lanes; r++ {
		if bad>>uint(r*n)&c.laneAll == 0 {
			continue
		}
		failed |= 1 << uint(r)
		errs[r] = AuditTheorem1(c.LaneTruth(r), c.LaneCollector(r), obedient, from[r], to[r])
		if errs[r] == nil {
			errs[r] = fmt.Errorf("sim: gang audit failed lane %d, which AuditTheorem1 passes", r)
		}
	}
	return failed
}

// AuditTheorem2 checks the membership service's guaranteed properties over a
// run (Theorem 2) for a single asymmetric-fault episode:
//
//   - liveness: once a locally detectable message is received (faultRound),
//     every obedient observer installs a new view within two protocol
//     executions (2·(lag+1) rounds);
//   - agreement: all obedient observers hold identical view histories
//     (same IDs, members and formation rounds) — the observable core of
//     view synchrony.
func AuditTheorem2(runners []*MembershipRunner, obedient []int, faultRound, lag int) error {
	if len(obedient) == 0 {
		return fmt.Errorf("sim: no obedient observers")
	}
	ref := runners[obedient[0]].Service().History()
	for _, obs := range obedient[1:] {
		h := runners[obs].Service().History()
		if len(h) != len(ref) {
			return fmt.Errorf("sim: observer %d has %d views, observer %d has %d",
				obs, len(h), obedient[0], len(ref))
		}
		for i := range h {
			if h[i].ID != ref[i].ID || h[i].FormedAtRound != ref[i].FormedAtRound {
				return fmt.Errorf("sim: view %d disagrees between observers %d and %d", i, obedient[0], obs)
			}
			if len(h[i].Members) != len(ref[i].Members) {
				return fmt.Errorf("sim: view %d members differ between observers %d and %d", i, obedient[0], obs)
			}
			for m := range h[i].Members {
				if h[i].Members[m] != ref[i].Members[m] {
					return fmt.Errorf("sim: view %d members differ between observers %d and %d", i, obedient[0], obs)
				}
			}
		}
	}
	if len(ref) < 2 {
		return fmt.Errorf("sim: liveness violated: no view change after the fault")
	}
	formed := ref[len(ref)-1].FormedAtRound
	if deadline := faultRound + 2*(lag+1); formed > deadline {
		return fmt.Errorf("sim: liveness violated: view formed at round %d, deadline %d", formed, deadline)
	}
	return nil
}
