package core

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/invariant"
)

// Mode selects the protocol variant.
type Mode int

// Protocol variants.
const (
	// ModeDiagnostic is the on-line diagnostic protocol of Sec. 5.
	ModeDiagnostic Mode = iota + 1
	// ModeMembership is the modified protocol of Sec. 7: the analysis phase
	// runs before dissemination and nodes whose local syndromes disagree
	// with the consistent health vector receive minority accusations.
	ModeMembership
)

// accusationTTL is how many consecutive dissemination writes carry a minority
// accusation. With unconstrained node scheduling the syndromes aggregated in
// one round can have been written in two different rounds (send alignment),
// so an accusation raised in round k is kept in the outgoing syndrome for two
// writes to guarantee that every obedient node's matrix sees it — preserving
// the two-execution liveness bound of Theorem 2 for any schedule.
const accusationTTL = 2

// accusationSkew is the window (in rounds) after an accusation is raised
// during which disagreement about the accused entry must not trigger further
// accusations. With unconstrained scheduling the diagnostic matrices of the
// transition rounds mix syndromes written before and after the accusation was
// raised, so honest rows can briefly disagree with an accusation-driven
// health-vector entry; without this guard those rows would be accused in a
// cascade. The window covers dissemination (accusationTTL writes) plus the
// aggregation lag.
const accusationSkew = accusationTTL + 2

// Config parameterises one node's diagnostic job.
type Config struct {
	// N is the number of nodes in the system.
	N int
	// ID is this node's 1-based identifier (and sending slot).
	ID int
	// L is l_i: the number of sending slots of the current round that have
	// already been transmitted when this node's diagnostic job executes.
	// It is determined by the node's internal schedule and lies in [0, N-1].
	L int
	// Dynamic enables dynamic node scheduling (Sec. 10): the OS schedules
	// the diagnostic job at a different position every round. A wandering
	// *read* point would lose interface values (a variable overwritten
	// between two reads can never be attributed to the right round), so the
	// dynamic deployment pins the read point: the middleware snapshots the
	// interface variables at round start (equivalent to l_i = 0) and the
	// job may then execute and write at any OS-chosen instant on a fixed
	// side of the node's sending slot (the SendCurrRound side, which send
	// alignment needs to be static). Under Dynamic, L is ignored and the
	// usual L-vs-SendCurrRound consistency check is skipped.
	Dynamic bool
	// SendCurrRound is the send_curr_round_i predicate: true iff the
	// diagnostic job completes before the node's own sending slot, so the
	// syndrome it writes is transmitted in the same round.
	SendCurrRound bool
	// AllSendCurrRound is the global predicate "∀j: send_curr_round_j". When
	// it holds (and is known at design time), every node writes its current
	// aligned syndrome and the protocol's detection latency shrinks from
	// four to three rounds (diagnosed round k-2 instead of k-3).
	AllSendCurrRound bool
	// StartRound is the absolute round number of the first Step call.
	StartRound int
	// Mode selects the diagnostic or membership variant; the zero value
	// means ModeDiagnostic.
	Mode Mode
	// PR tunes the penalty/reward algorithm.
	PR PRConfig
}

// Lag returns the distance between the execution round of a diagnostic job
// and the round it diagnoses: k-2 under AllSendCurrRound, k-3 otherwise
// (Lemma 1).
func (c Config) Lag() int {
	if c.AllSendCurrRound {
		return 2
	}
	return 3
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.N)
	}
	if c.ID < 1 || c.ID > c.N {
		return fmt.Errorf("core: node id %d out of range 1..%d", c.ID, c.N)
	}
	if c.L < 0 || c.L > c.N-1 {
		return fmt.Errorf("core: l_i = %d out of range 0..%d", c.L, c.N-1)
	}
	if c.AllSendCurrRound && !c.SendCurrRound {
		return fmt.Errorf("core: AllSendCurrRound requires SendCurrRound on every node")
	}
	if !c.Dynamic && c.SendCurrRound != (c.L < c.ID) {
		return fmt.Errorf("core: SendCurrRound=%v inconsistent with l_i=%d and id=%d (job runs %s the node's slot)",
			c.SendCurrRound, c.L, c.ID, map[bool]string{true: "before", false: "after"}[c.L < c.ID])
	}
	if c.Mode != ModeDiagnostic && c.Mode != ModeMembership && c.Mode != 0 {
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	return c.PR.Validate(c.N)
}

// CollisionFn answers the local collision detector query for this node's own
// transmission in the given (absolute) round: Faulty when the controller
// could not read the node's message back from the bus, Healthy otherwise.
type CollisionFn func(round int) Opinion

// RoundInput carries what the node's communication controller observed when
// the diagnostic job executes in one round.
type RoundInput struct {
	// Round is the absolute round number; it must advance by exactly one
	// per Step.
	Round int
	// DMs[j] is the decoded diagnostic message currently held in interface
	// variable j (1-based). A nil entry means the validity bit was 0 or the
	// payload was undecodable — the ε case.
	DMs []Syndrome
	// Validity[j] is the validity bit of interface variable j as an
	// Opinion: Healthy for 1, Faulty for 0. Under Config.Dynamic the
	// vectors must come from the round-start snapshot of the interface.
	Validity Syndrome
	// Collision resolves self-diagnosis when no external syndrome is
	// available (Lemma 3). A nil func defaults to Healthy.
	Collision CollisionFn
}

// PackedRoundInput is the plane-form round input for systems within the
// packed bound (N <= MaxPackedN): what RoundInput carries as slices arrives
// as bit masks and two-word syndromes, so the hot path never touches
// per-entry byte vectors. Rows[j] is read only when Present bit j-1 is set
// (the clear bit is the ε case), and Validity carries the validity bits
// (Healthy = Op bit set; all entries Known in a well-formed input). Rows are
// copied by value — the caller keeps ownership of the slice and may reuse it
// immediately after the call.
type PackedRoundInput struct {
	// Round is the absolute round number; it must advance by exactly one
	// per step.
	Round int
	// Rows[j] is the packed decoded diagnostic message of interface
	// variable j (1-based), meaningful iff Present bit j-1 is set.
	Rows []BitSyndrome
	// Present marks the interface variables holding a decodable valid
	// payload (bit j-1 = variable j).
	Present uint64
	// Validity packs the validity bits of the interface variables.
	Validity BitSyndrome
	// Collision resolves self-diagnosis when no external syndrome is
	// available (Lemma 3). A nil func defaults to Healthy.
	Collision CollisionFn
}

// RoundOutput is the result of one diagnostic-job execution. Its reference
// fields (Send, SendSyndrome, ConsHV, Matrix, Active) point into the
// protocol's output ring and are valid for the next three Steps only (see
// Protocol); Isolated, Reintegrated and Accused are fresh per round.
type RoundOutput struct {
	// Round echoes the executed round.
	Round int
	// Send is the encoded local syndrome to write into the node's interface
	// variable (the dissemination payload, N bits).
	Send []byte
	// SendSyndrome is the decoded form of Send.
	SendSyndrome Syndrome
	// ConsHV is the consistent health vector for DiagnosedRound, or nil
	// while the protocol pipeline is still warming up.
	ConsHV Syndrome
	// ConsHVBits is the packed form of ConsHV for systems within the packed
	// bound (every entry Known once ConsHV is non-nil); the zero value
	// during warm-up and for N > MaxPackedN.
	ConsHVBits BitSyndrome
	// DiagnosedRound is the absolute round ConsHV refers to (Round-2 or
	// Round-3 per Lemma 1); -1 when ConsHV is nil.
	DiagnosedRound int
	// Matrix is the diagnostic matrix the analysis voted over (nil during
	// warm-up). Row ID is the node's own buffered aligned syndrome.
	Matrix *Matrix
	// Isolated lists nodes whose activity bit dropped to 0 in this round.
	Isolated []int
	// Reintegrated lists nodes returned to service by the optional
	// reintegration extension.
	Reintegrated []int
	// Active is the activity vector after the update (1-based).
	Active []bool
	// ActiveMask is the packed activity vector (bit j-1 = node j active) for
	// systems within the packed bound; zero beyond it. Unlike Active it is a
	// value, so it is retain-safe.
	ActiveMask uint64
	// Accused lists the minority accusations raised in this round
	// (membership mode only).
	Accused []int
}

// alignBuf holds one round's buffered controller observations for read and
// send alignment (Alg. 1 lines 16-17): the raw interface state and the
// aligned local syndrome derived from it. The protocol keeps two of these
// and alternates between them — the buffer written in round k is the one
// read in round k+1 — so the steady-state hot path performs no allocation
// for the clones the original algorithm keeps.
type alignBuf struct {
	// dm[j] is this buffer's copy of interface variable j; it is meaningful
	// only when set[j] holds (set[j] == false is the ε case, a nil DM).
	dm  []Syndrome
	set []bool
	// ls is the validity vector observed in the buffered round.
	ls Syndrome
	// al is the aligned local syndrome computed in the buffered round (used
	// by send alignment, Alg. 1 line 9).
	al Syndrome
}

func newAlignBuf(n int) alignBuf {
	b := alignBuf{
		dm:  make([]Syndrome, n+1),
		set: make([]bool, n+1),
		ls:  NewSyndrome(n, Healthy),
		al:  NewSyndrome(n, Healthy),
	}
	for j := 1; j <= n; j++ {
		b.dm[j] = NewSyndrome(n, Healthy)
		b.set[j] = true
	}
	return b
}

// outputRing is the number of RoundOutput slots a Protocol cycles through:
// round k writes slot k%outputRing, so every reference a RoundOutput
// carries stays valid for exactly the next outputRing-1 Steps.
const outputRing = 4

// outSlot is one entry of the output ring: matrix, consistent health
// vector, outgoing syndrome in decoded and wire form, activity vector. The
// scalar reference path uses only send and active.
type outSlot struct {
	m              *Matrix
	consHV, outSyn Syndrome
	send           []byte
	active         []bool
}

// slot returns the ring slot of the current Step: its inline matrix header
// and its stretch of each backing slice.
func (p *Protocol) slot() outSlot {
	i := p.steps & (outputRing - 1)
	w, el := p.cfg.N+1, EncodedLen(p.cfg.N)
	s := outSlot{m: &p.ring[i], send: p.ringSend[i*el : (i+1)*el : (i+1)*el], active: p.ringActive[i*w : (i+1)*w : (i+1)*w]}
	if p.packed {
		s.consHV = p.ringSyn[2*i*w : (2*i+1)*w : (2*i+1)*w]
		s.outSyn = p.ringSyn[(2*i+1)*w : 2*(i+1)*w : 2*(i+1)*w]
	}
	return s
}

// initRing allocates the ring's backing slices. The matrix planes, most of
// its bytes, are carved by the first warm packed Step (carvePlanes), so
// building a cluster does not zero memory only a run uses.
func (p *Protocol) initRing() {
	w := p.cfg.N + 1
	p.ringSend = make([]byte, outputRing*EncodedLen(p.cfg.N))
	p.ringActive = make([]bool, outputRing*w)
	if p.packed {
		p.ringSyn = make(Syndrome, outputRing*2*w)
		for i := range p.ring {
			p.ring[i].n = p.cfg.N
		}
	}
}

// carvePlanes gives every ring matrix its row planes, out of one slice.
func (p *Protocol) carvePlanes() {
	w := p.cfg.N + 1
	planes := make([]uint64, outputRing*2*w)
	for i := range p.ring {
		initPackedMatrix(&p.ring[i], planes[2*i*w:2*(i+1)*w])
	}
}

// scalarState is the scalar reference path's alignment state; the packed
// path leaves Protocol.scalar nil.
type scalarState struct {
	// bufs double-buffers the read/send-alignment state: round k reads
	// bufs[k%2] (written in round k-1) and writes bufs[(k+1)%2].
	bufs [2]alignBuf
	// alDM is the scratch aligned-DM view of the current round. Its entries
	// alias the previous round's buffer or the caller's input and never
	// escape: the diagnostic matrix copies every row it is given.
	alDM []Syndrome
	// lastSent / prevSent are the dissemination payloads of the previous
	// two rounds (see laneKernel): protocol-owned copies, never aliases of
	// an output.
	lastSent Syndrome
	prevSent Syndrome
}

// recordSent shifts the dissemination history by one round: prevSent takes
// over lastSent's buffer, and the syndrome just sent is copied into the
// other one.
func (s *scalarState) recordSent(sent Syndrome) {
	s.prevSent, s.lastSent = s.lastSent, s.prevSent
	copy(s.lastSent, sent)
}

// ownRow is laneKernel.ownRow on the scalar history.
func (s *scalarState) ownRow(sendCurrRound bool) Syndrome {
	if sendCurrRound {
		return s.lastSent
	}
	return s.prevSent
}

// Protocol is the per-node diagnostic job state machine (Alg. 1). Create one
// per node with NewProtocol and call Step exactly once per TDMA round.
//
// Systems within the packed bound (N <= MaxPackedN) run the bit-plane hot
// path, the one-lane case of the kernel BatchProtocol runs with G lanes:
// alignment state, matrix rows, voting and the activity update all operate
// on machine words, and StepPacked accepts the round input in packed form
// directly. What stays per run is the membership accusations (between the
// vote and dissemination), the ⊥ fallback through CollisionFn, the output
// ring and the causal trace. Step remains fully supported (it packs its
// scalar input and delegates), wider systems transparently use the scalar
// reference path, and both paths produce identical outputs and snapshot
// bytes.
//
// Buffer ownership: Step copies its inputs into protocol-owned scratch
// (callers may reuse RoundInput slices immediately). Everything a
// RoundOutput references lives in a ring of four output slots allocated
// once per protocol and is overwritten four Steps later, so the warm packed
// path allocates nothing; callers that keep an output longer copy it
// (Syndrome.Clone, Matrix.Clone). The scalar reference path still allocates
// its matrix and syndromes per round.
type Protocol struct {
	// laneKernel holds the configuration, the round cursor and, on the
	// packed path, the alignment state and dissemination history (one
	// lane). The scalar path keeps its own in scalar.
	laneKernel
	pr *PenaltyReward

	// metrics is the optional telemetry attachment (SetMetrics); nil — the
	// default — costs one branch per Step. It survives Reset/ResetConfig so
	// reusable campaign clusters keep accumulating across repetitions.
	metrics *StepMetrics

	// trace is the optional causal flight recorder (SetTrace); same nil-is-
	// off discipline and lifetime as metrics.
	trace *StepTrace

	// packed selects the bit-plane hot path; set at construction for
	// N <= MaxPackedN (tests force it off to exercise the scalar reference).
	packed bool

	// scalar holds the scalar path's alignment state and history; nil on
	// the packed path.
	scalar *scalarState
	// inRows is the packed path's scratch for Step's scalar-to-packed input
	// conversion, allocated by the first Step (StepPacked callers provide
	// their own rows and never need it).
	inRows []BitSyndrome
	// ring holds the matrix headers of the output ring (see outputRing),
	// and ringSyn, ringSend and ringActive back the slots' other references
	// (see slot).
	ring       [outputRing]Matrix
	ringSyn    Syndrome
	ringSend   []byte
	ringActive []bool
	// accuse holds the remaining dissemination writes each pending minority
	// accusation is carried for (membership mode); accuseMask mirrors its
	// non-zero entries as a bit mask on the packed path.
	accuse     []int
	accuseMask uint64
	// accusedAge[j] counts the rounds since an accusation against j was last
	// raised (saturating); it drives the accusationSkew guard. agingMask
	// mirrors the non-saturated entries (age <= accusationSkew) on the
	// packed path so the per-round aging touches only live counters.
	accusedAge []int
	agingMask  uint64
	// invPrevActive is the previous round's activity vector, kept only by
	// ttdiag_invariants builds for the monotonicity check.
	invPrevActive []bool
}

// NewProtocol builds the diagnostic job for one node. Systems with
// N <= MaxPackedN automatically run the bit-packed hot path.
func NewProtocol(cfg Config) (*Protocol, error) {
	return newProtocol(cfg, cfg.N <= MaxPackedN)
}

// NewScalarProtocol is NewProtocol pinned to the scalar reference
// representation regardless of N. Differential tooling — forced-scalar
// clusters, the divergence bisector — uses it to run the reference path on
// packed-eligible sizes; production callers should prefer NewProtocol.
func NewScalarProtocol(cfg Config) (*Protocol, error) {
	return newProtocol(cfg, false)
}

// newProtocol is NewProtocol with an explicit representation choice; tests
// force packed off to run the scalar reference on packed-eligible sizes.
func newProtocol(cfg Config, packed bool) (*Protocol, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pr, err := NewPenaltyReward(cfg.N, cfg.PR)
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		laneKernel: laneKernel{cfg: cfg},
		pr:         pr,
		packed:     packed,
		accuse:     make([]int, cfg.N+1),
		accusedAge: make([]int, cfg.N+1),
	}
	if packed {
		p.allocBufs()
	} else {
		p.scalar = &scalarState{
			bufs:     [2]alignBuf{newAlignBuf(cfg.N), newAlignBuf(cfg.N)},
			alDM:     make([]Syndrome, cfg.N+1),
			lastSent: NewSyndrome(cfg.N, Healthy),
			prevSent: NewSyndrome(cfg.N, Healthy),
		}
	}
	p.initRing()
	for j := range p.accusedAge {
		p.accusedAge[j] = accusationSkew + 1
	}
	p.resetLanes(1)
	return p, nil
}

// Reset returns the protocol to its freshly constructed state (round
// StartRound, warm-up pending, all counters cleared) while keeping its
// allocated buffers, so one instance can be reused across campaign
// repetitions. Previously returned RoundOutputs keep the usual ring window:
// the next three Steps after their own, counted across the Reset.
func (p *Protocol) Reset() {
	n := p.cfg.N
	p.resetLanes(1)
	if !p.packed {
		for j := 1; j <= n; j++ {
			p.scalar.lastSent[j], p.scalar.prevSent[j] = Healthy, Healthy
		}
		for b := range p.scalar.bufs {
			buf := &p.scalar.bufs[b]
			for j := 1; j <= n; j++ {
				buf.set[j] = true
				for m := 1; m <= n; m++ {
					buf.dm[j][m] = Healthy
				}
				buf.ls[j] = Healthy
				buf.al[j] = Healthy
			}
		}
	}
	for j := range p.accuse {
		p.accuse[j] = 0
		p.accusedAge[j] = accusationSkew + 1
	}
	p.accuseMask, p.agingMask = 0, 0
	p.invPrevActive = nil
	p.pr.Reset()
	if p.trace != nil {
		p.trace.resync(p.pr)
	}
}

// ResetConfig is Reset with a configuration swap: it revalidates cfg and
// restarts the protocol under it. The node count is fixed at construction
// time (the internal buffers are sized for it); changing N requires a new
// instance.
func (p *Protocol) ResetConfig(cfg Config) error {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.N != p.cfg.N {
		return fmt.Errorf("core: node %d: ResetConfig cannot change N from %d to %d", p.cfg.ID, p.cfg.N, cfg.N)
	}
	if err := p.pr.ResetConfig(cfg.PR); err != nil {
		return err
	}
	p.cfg = cfg
	p.Reset()
	return nil
}

// Config returns the protocol's configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Packed reports whether the protocol runs the bit-packed hot path (always
// the case for N <= MaxPackedN instances built with NewProtocol).
func (p *Protocol) Packed() bool { return p.packed }

// PenaltyReward exposes the node's Alg. 2 state for inspection.
func (p *Protocol) PenaltyReward() *PenaltyReward { return p.pr }

// Step executes the diagnostic job for one round. Within the packed bound it
// converts the input to plane form and runs the packed path (callers that
// already hold packed observations use StepPacked and skip the conversion);
// entries of DMs/Validity outside {Faulty, Healthy, Erased} are normalised
// to ε there, which Eqn. 1's tally treats identically.
//
// The input's slices stay caller-owned: Step copies what it needs, so a
// caller may reuse its DMs/Validity buffers immediately after the call.
//
// The output's references live in the protocol's output ring (see
// RoundOutput): callers must not keep them past the next three Steps.
//
//ttdiag:noretain
func (p *Protocol) Step(in RoundInput) (RoundOutput, error) {
	n := p.cfg.N
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if in.Validity.N() != n {
		return RoundOutput{}, fmt.Errorf("core: node %d: validity vector covers %d nodes, want %d", p.cfg.ID, in.Validity.N(), n)
	}
	if len(in.DMs) != n+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: DMs has %d entries, want %d", p.cfg.ID, len(in.DMs), n+1)
	}
	for j := 1; j <= n; j++ {
		if in.DMs[j] != nil && in.DMs[j].N() != n {
			return RoundOutput{}, fmt.Errorf("core: matrix row %d has %d entries, want %d", j, in.DMs[j].N(), n)
		}
	}
	if !p.packed {
		return p.stepScalar(in)
	}
	if p.inRows == nil {
		p.inRows = make([]BitSyndrome, n+1)
	}
	var present uint64
	for j := 1; j <= n; j++ {
		if in.DMs[j] != nil {
			present |= 1 << uint(j-1)
			p.inRows[j] = packSyndrome(in.DMs[j])
		}
	}
	return p.stepPacked(PackedRoundInput{
		Round:     in.Round,
		Rows:      p.inRows,
		Present:   present,
		Validity:  packSyndrome(in.Validity),
		Collision: in.Collision,
	})
}

// StepPacked executes the diagnostic job for one round on packed
// observations, the zero-conversion entry of the hot path. It fails on
// instances running the scalar representation (N > MaxPackedN). Rows stays
// caller-owned (entries are copied by value) and may be reused immediately.
// Like Step's, the output's references are only valid for the next three
// Steps.
//
//ttdiag:noretain
func (p *Protocol) StepPacked(in PackedRoundInput) (RoundOutput, error) {
	if !p.packed {
		return RoundOutput{}, fmt.Errorf("core: node %d: StepPacked needs the packed representation (N = %d > %d); use Step", p.cfg.ID, p.cfg.N, MaxPackedN)
	}
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if len(in.Rows) != p.cfg.N+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: Rows has %d entries, want %d", p.cfg.ID, len(in.Rows), p.cfg.N+1)
	}
	return p.stepPacked(in)
}

// stepPacked is the bit-plane diagnostic job: the one-lane case of the
// kernel StepBatch runs, with the per-run phases — ⊥ fallback through the
// collision detector, membership accusations, the output ring — around it.
// Its outputs go into the round's ring slot, so the warm path allocates
// nothing. It is step-for-step equivalent to stepScalar (pinned by the
// differential tests in packed_equivalence_test.go).
//
//ttdiag:noretain
func (p *Protocol) stepPacked(in PackedRoundInput) (RoundOutput, error) {
	all := p.allB

	// The round's output — matrix planes, consistent health vector, outgoing
	// syndrome, Send and Active — lives in its ring slot.
	slot := p.slot()
	matrix, consHV, outSyn := slot.m, slot.consHV, slot.outSyn

	alSet, alLS := p.readAlign(in.Present, in.Validity)

	out := RoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14). In membership mode this runs
	// before dissemination so that minority accusations can be added to the
	// outgoing syndrome; in diagnostic mode the ordering is unobservable.
	warm := p.steps >= p.cfg.Lag()
	if warm {
		if matrix.op == nil {
			p.carvePlanes()
		}
		// The rows go straight into the slot's planes; the byte-level cache
		// of the slot's previous round is dropped.
		rowSet := p.installRows(matrix.op, matrix.know, alSet, in.Rows)
		matrix.rowSet = rowSet
		matrix.cells = nil

		var consBits BitSyndrome
		consBits.Op, consBits.Known = voteAllLanes(matrix.op, matrix.know, p.cfg.N, 1)
		diagRound := in.Round - p.cfg.Lag()
		// H-maj returned ⊥ on the columns outside consBits.Known: at least
		// N-1 nodes could not send their syndromes. Only self-diagnosis can
		// be left undecided, and it falls back to the local collision
		// detector (Alg. 1 line 14), queried in ascending column order like
		// the scalar path.
		for rem := all &^ consBits.Known; rem != 0; rem &= rem - 1 {
			bit := rem & -rem
			if p.collisionVerdict(in.Collision, diagRound) == Healthy {
				consBits.Op |= bit
			}
			consBits.Known |= bit
		}
		consBits.UnpackInto(consHV)
		out.ConsHV = consHV
		out.ConsHVBits = consBits
		out.DiagnosedRound = diagRound
		out.Matrix = matrix

		if p.cfg.Mode == ModeMembership {
			// Entries whose health-vector value may still be driven by a
			// recent minority accusation are skipped, as is the node's own
			// entry once it sees itself convicted (it is the accused party
			// and must not counter-accuse rows carrying the other clique's
			// verdict) — see accusationSkew and disagrees.
			self := p.selfB
			skip := p.guardMask()
			if consBits.Op&self == 0 {
				skip |= self
			}
			for rem := rowSet &^ self; rem != 0; rem &= rem - 1 {
				j := bits.TrailingZeros64(rem) + 1
				jb := uint64(1) << uint(j-1)
				// A row conflicts with the health vector wherever it is
				// known with the opposite opinion, or ε where the vector
				// holds a verdict (consBits is all-Known here).
				conflict := (matrix.know[j] & (matrix.op[j] ^ consBits.Op)) | (all &^ matrix.know[j])
				if conflict&^(jb|skip) != 0 {
					p.accuse[j] = accusationTTL
					p.accuseMask |= jb
					out.Accused = append(out.Accused, j)
					if p.trace != nil {
						// Evidence class: a definite opinion opposite the
						// verdict on an unguarded column, vs ε-only conflict.
						definite := (matrix.know[j]&(matrix.op[j]^consBits.Op))&^(jb|skip) != 0
						p.trace.noteEvidence(j, definite)
					}
				}
			}
			// Age updates happen after the whole check loop so that every
			// row is judged against the same guard state.
			for _, j := range out.Accused {
				p.accusedAge[j] = 0
				p.agingMask |= 1 << uint(j-1)
			}
			if consBits.Op&self == 0 {
				p.accusedAge[p.cfg.ID] = 0
				p.agingMask |= self
			}
		}
	}

	outBits := p.sendAlign(alLS)
	if p.cfg.Mode == ModeMembership && p.accuseMask != 0 {
		// Pending accusations force the accused entries to Faulty.
		outBits.Op &^= p.accuseMask
		outBits.Known |= p.accuseMask
		for rem := p.accuseMask; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem) + 1
			p.accuse[j]--
			if p.accuse[j] == 0 {
				p.accuseMask &^= 1 << uint(j-1)
			}
		}
	}
	outBits.UnpackInto(outSyn)
	outBits.EncodeInto(slot.send)
	out.Send = slot.send
	out.SendSyndrome = outSyn

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2): one masked update
	// that visits only the columns voted faulty plus the nodes with live
	// counters.
	if out.ConsHV != nil {
		iso, reint := p.pr.updateMasked(out.ConsHVBits.Known &^ out.ConsHVBits.Op)
		out.Isolated, out.Reintegrated = maskNodes(iso), maskNodes(reint)
	}
	copy(slot.active, p.pr.active)
	out.Active = slot.active
	out.ActiveMask = p.pr.activeMask

	p.endRound(in.Present, in.Validity, in.Rows, outBits)
	if p.metrics != nil {
		p.emitStepMetrics(&out, matrix, warm)
	}
	if p.trace != nil {
		p.emitStepTrace(&out, warm)
	}
	p.ageAccusations()
	if invariant.Enabled {
		p.checkStepInvariants(out)
	}
	return out, nil
}

// maskNodes lists the nodes of a one-lane mask in ascending order (nil for
// an empty mask), the slice form RoundOutput reports transitions in.
func maskNodes(m uint64) (nodes []int) {
	for ; m != 0; m &= m - 1 {
		nodes = append(nodes, bits.TrailingZeros64(m)+1)
	}
	return nodes
}

// stepScalar is the byte-per-entry diagnostic job: the reference
// implementation for systems beyond the packed bound and for the
// differential tests (inputs are pre-validated by Step).
//
//ttdiag:noretain
func (p *Protocol) stepScalar(in RoundInput) (RoundOutput, error) {
	n := p.cfg.N

	// rd was written in the previous round; wr becomes next round's rd.
	rd := &p.scalar.bufs[p.steps&1]
	wr := &p.scalar.bufs[(p.steps+1)&1]

	// The round's matrix cells, consistent health vector and outgoing
	// syndrome live in one block allocated for this round alone, so the
	// steady-state warm path costs a fixed two allocations per Step
	// regardless of N (the block and the Matrix header; Send and Active come
	// from the ring slot).
	slot := p.slot()
	w := n + 1
	block := make(Syndrome, w*w+2*w)
	cells := block[0 : w*w : w*w]
	consHV := block[w*w : w*w+w : w*w+w]
	outSyn := block[w*w+w : w*w+2*w : w*w+2*w]
	consHV[0], outSyn[0] = Erased, Erased

	// Phases 1 and 3 — local detection and aggregation (read alignment,
	// Alg. 1 lines 1-6): entries 1..l_i come from the previous read, the
	// rest from the current one, so every aligned value refers to a message
	// sent in round k-1. Under dynamic scheduling the read point is pinned
	// to round start (l = 0): the inputs come from the middleware's
	// round-start snapshot, so everything is read from curr. The aligned
	// syndromes stay scratch (alDM aliases rd and the caller's input; the
	// matrix copies every row), and the aligned local syndrome is computed
	// directly into wr.al, where next round's send alignment expects it.
	l := p.cfg.L
	if p.cfg.Dynamic {
		l = 0
	}
	alDM := p.scalar.alDM
	alLS := wr.al
	for j := 1; j <= n; j++ {
		if j <= l {
			alDM[j] = nil
			if rd.set[j] {
				alDM[j] = rd.dm[j]
			}
			alLS[j] = rd.ls[j]
		} else {
			alDM[j] = in.DMs[j]
			alLS[j] = in.Validity[j]
		}
	}

	out := RoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14). In membership mode this runs
	// before dissemination so that minority accusations can be added to the
	// outgoing syndrome; in diagnostic mode the ordering is unobservable.
	warm := p.steps >= p.cfg.Lag()
	var matrix *Matrix
	if warm {
		matrix = newMatrixIn(n, cells)
		for j := 1; j <= n; j++ {
			row := alDM[j]
			if j == p.cfg.ID {
				// This node's own row is its locally buffered copy of the
				// syndrome it physically transmitted in round k-1 — available
				// even when the transmission itself failed (Lemma 3).
				row = p.scalar.ownRow(p.cfg.SendCurrRound)
			}
			if err := matrix.SetRow(j, row); err != nil {
				return RoundOutput{}, err
			}
		}
		diagRound := in.Round - p.cfg.Lag()
		for j := 1; j <= n; j++ {
			if v, ok := matrix.Vote(j); ok {
				consHV[j] = v
				continue
			}
			// H-maj returned ⊥: at least N-1 nodes could not send their
			// syndromes. Only self-diagnosis can be left undecided, and it
			// falls back to the local collision detector (Alg. 1 line 14).
			consHV[j] = p.collisionVerdict(in.Collision, diagRound)
		}
		out.ConsHV = consHV
		if n <= MaxPackedN {
			out.ConsHVBits = packSyndrome(consHV)
		}
		out.DiagnosedRound = diagRound
		out.Matrix = matrix

		if p.cfg.Mode == ModeMembership {
			for j := 1; j <= n; j++ {
				row := matrix.Row(j)
				if row == nil || j == p.cfg.ID {
					continue
				}
				if p.disagrees(row, consHV, j) {
					p.accuse[j] = accusationTTL
					if j <= MaxPackedN {
						p.accuseMask |= 1 << uint(j-1)
					}
					out.Accused = append(out.Accused, j)
					if p.trace != nil {
						p.trace.noteEvidence(j, p.disagreesDefinite(row, consHV, j))
					}
				}
			}
			// Age updates happen after the whole check loop so that every
			// row is judged against the same guard state.
			for _, j := range out.Accused {
				p.accusedAge[j] = 0
				if j <= MaxPackedN {
					p.agingMask |= 1 << uint(j-1)
				}
			}
			// A node that finds itself convicted has (from its own point of
			// view) been minority-accused: guard its own entry so it does
			// not counter-accuse rows that still carry the older verdict.
			if consHV[p.cfg.ID] == Faulty {
				p.accusedAge[p.cfg.ID] = 0
				if p.cfg.ID <= MaxPackedN {
					p.agingMask |= 1 << uint(p.cfg.ID-1)
				}
			}
		}
	}

	// Phase 2 — dissemination (send alignment, Alg. 1 lines 7-10): choose
	// the syndrome whose transmission round keeps all disseminated
	// syndromes referring to the same diagnosed round.
	switch {
	case p.cfg.AllSendCurrRound:
		copy(outSyn, alLS)
	case p.cfg.SendCurrRound:
		copy(outSyn, rd.al)
	default:
		copy(outSyn, alLS)
	}
	if p.cfg.Mode == ModeMembership {
		for j := 1; j <= n; j++ {
			if p.accuse[j] > 0 {
				outSyn[j] = Faulty
				p.accuse[j]--
				if p.accuse[j] == 0 && j <= MaxPackedN {
					p.accuseMask &^= 1 << uint(j-1)
				}
			}
		}
	}
	outSyn.EncodeInto(slot.send)
	out.Send = slot.send
	out.SendSyndrome = outSyn

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2).
	if out.ConsHV != nil {
		iso, reint, err := p.pr.Update(out.ConsHV)
		if err != nil {
			return RoundOutput{}, err
		}
		out.Isolated = iso
		out.Reintegrated = reint
	}
	copy(slot.active, p.pr.active)
	out.Active = slot.active
	out.ActiveMask = p.pr.activeMask

	// Buffering for the next round (Alg. 1 lines 16-17): copy this round's
	// raw observations into the buffer the next Step will read. wr.al
	// already holds the aligned local syndrome (written during alignment).
	for j := 1; j <= n; j++ {
		wr.set[j] = in.DMs[j] != nil
		if wr.set[j] {
			copy(wr.dm[j], in.DMs[j])
		}
	}
	copy(wr.ls, in.Validity)
	p.scalar.recordSent(outSyn)
	if p.metrics != nil {
		p.emitStepMetrics(&out, matrix, warm)
	}
	if p.trace != nil {
		p.emitStepTrace(&out, warm)
	}
	p.ageAccusations()
	p.steps++
	if invariant.Enabled {
		p.checkStepInvariants(out)
	}
	return out, nil
}

// ageAccusations advances the skew-guard ages; counters saturated past the
// window (the steady state of every node) carry no mask bit and cost
// nothing.
func (p *Protocol) ageAccusations() {
	if p.agingMask != 0 || p.packed {
		for rem := p.agingMask; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem) + 1
			p.accusedAge[j]++
			if p.accusedAge[j] > accusationSkew {
				p.agingMask &^= 1 << uint(j-1)
			}
		}
		return
	}
	for j := 1; j <= p.cfg.N; j++ {
		if p.accusedAge[j] <= accusationSkew {
			p.accusedAge[j]++
		}
	}
}

// guardMask returns the accusationSkew guard as a column mask: bit j-1 set
// iff accusedAge[j] lies in [1, accusationSkew].
func (p *Protocol) guardMask() uint64 {
	var m uint64
	for rem := p.agingMask; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		if a := p.accusedAge[j]; a >= 1 && a <= accusationSkew {
			m |= 1 << uint(j-1)
		}
	}
	return m
}

// rebuildAccusationMasks recomputes accuseMask and agingMask from the
// counter slices (used after a snapshot restore replaces them).
func (p *Protocol) rebuildAccusationMasks() {
	p.accuseMask, p.agingMask = 0, 0
	for j := 1; j <= p.cfg.N && j <= MaxPackedN; j++ {
		bit := uint64(1) << uint(j-1)
		if p.accuse[j] > 0 {
			p.accuseMask |= bit
		}
		if p.accusedAge[j] <= accusationSkew {
			p.agingMask |= bit
		}
	}
}

// collisionVerdict is the local collision detector's verdict on this node's
// transmission in round: Faulty only when the detector reports it.
func (p *Protocol) collisionVerdict(fn CollisionFn, round int) Opinion {
	if fn != nil && fn(round) == Faulty {
		return Faulty
	}
	return Healthy
}

// disagrees reports whether row (node j's local syndrome) conflicts with the
// consistent health vector on any node other than j itself (the diagonal is
// the unreliable self-opinion and is ignored). Entries whose health-vector
// value may still be driven by a recent minority accusation are skipped —
// see accusationSkew.
func (p *Protocol) disagrees(row, consHV Syndrome, j int) bool {
	for m := 1; m <= consHV.N(); m++ {
		if m == j {
			continue
		}
		if p.accusedAge[m] >= 1 && p.accusedAge[m] <= accusationSkew {
			continue
		}
		// The protocol's own entry is guarded as soon as the node sees
		// itself convicted (it is the accused party and must not
		// counter-accuse rows carrying the other clique's verdict).
		if m == p.cfg.ID && consHV[m] == Faulty {
			continue
		}
		if row[m] != consHV[m] {
			return true
		}
	}
	return false
}
