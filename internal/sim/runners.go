package sim

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
	"ttdiag/internal/membership"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// inputScratch is a runner-owned reusable backing for core.RoundInput: the
// DM slice, the per-sender decode targets, the validity vector and the
// collision-detector closure are allocated once and overwritten every round
// (the protocol copies its inputs in, so reuse after Step is safe).
type inputScratch struct {
	dms      []core.Syndrome // n+1; entry j aliases rows[j] or is nil (ε)
	rows     []core.Syndrome // n+1 preallocated decode destinations
	validity core.Syndrome
	// prows is the packed-path equivalent of rows: per-sender two-word
	// syndromes fed to core.Protocol.StepPacked.
	prows []core.BitSyndrome
	// collision is cached per controller so the hot path does not allocate
	// a fresh closure every round.
	collision core.CollisionFn
	ctrl      *tdma.Controller
}

// bindCollision (re)caches the collision-detector closure for ctrl.
func (sc *inputScratch) bindCollision(ctrl *tdma.Controller) {
	if sc.ctrl == ctrl {
		return
	}
	sc.ctrl = ctrl
	sc.collision = func(r int) core.Opinion {
		if collided, ok := ctrl.Collision(r); ok && collided {
			return core.Faulty
		}
		return core.Healthy
	}
}

// build converts interface-variable values and validity bits (from a live
// read or a stored round-start snapshot) into the protocol's round input:
// decoded diagnostic messages (nil = ε for invalid or undecodable payloads),
// the validity-bit vector, and the collision-detector query. The returned
// input aliases the scratch and is valid until the next build; values and
// valid stay caller-owned (typically controller scratch) and are only read.
//
//ttdiag:noretain
func (sc *inputScratch) build(round, n int, values [][]byte, valid []bool, ctrl *tdma.Controller) core.RoundInput {
	if sc.dms == nil {
		sc.dms = make([]core.Syndrome, n+1)
		sc.rows = make([]core.Syndrome, n+1)
		for j := 1; j <= n; j++ {
			sc.rows[j] = core.NewSyndrome(n, core.Faulty)
		}
		sc.validity = core.NewSyndrome(n, core.Healthy)
	}
	sc.bindCollision(ctrl)
	in := core.RoundInput{
		Round:     round,
		DMs:       sc.dms,
		Validity:  sc.validity,
		Collision: sc.collision,
	}
	for j := 1; j <= n; j++ {
		in.DMs[j] = nil
		if !valid[j] {
			in.Validity[j] = core.Faulty
			continue
		}
		in.Validity[j] = core.Healthy
		if err := core.DecodeSyndromeInto(sc.rows[j], values[j]); err != nil {
			// A syntactically wrong payload is locally detectable.
			in.Validity[j] = core.Faulty
			continue
		}
		in.DMs[j] = sc.rows[j]
	}
	return in
}

// buildRoundInput converts the controller's live interface state into the
// protocol's round input (a scratch-aliasing view, like build's).
//
//ttdiag:noretain
func (sc *inputScratch) buildRoundInput(round, n int, ctrl *tdma.Controller) core.RoundInput {
	values, valid := ctrl.ReadAll()
	return sc.build(round, n, values, valid, ctrl)
}

// buildPacked is build for the bit-packed hot path (N <= core.MaxPackedN):
// the validity bits arrive as a mask, each valid payload is word-loaded
// straight into planes, and an undecodable payload drops out of both the
// presence and validity masks — exactly the ε + invalid outcome of the
// scalar build. The returned input aliases sc.prows (the protocol copies
// rows in, so reuse after the step is safe).
//
//ttdiag:noretain
func (sc *inputScratch) buildPacked(round, n int, values [][]byte, validMask uint64, ctrl *tdma.Controller) core.PackedRoundInput {
	if sc.prows == nil {
		sc.prows = make([]core.BitSyndrome, n+1)
	}
	sc.bindCollision(ctrl)
	all := core.PlaneMask(n)
	var present uint64
	for rem := validMask & all; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		row, err := core.BitSyndromeFromWire(values[j], n)
		if err != nil {
			// A syntactically wrong payload is locally detectable.
			continue
		}
		sc.prows[j] = row
		present |= rem & -rem
	}
	return core.PackedRoundInput{
		Round:     round,
		Rows:      sc.prows,
		Present:   present,
		Validity:  core.BitSyndrome{Op: present, Known: all},
		Collision: sc.collision,
	}
}

// applyActivity propagates the protocol's activity vector into the node's
// controller: traffic from isolated nodes is ignored, reintegrated nodes are
// heard again. When the reintegration extension is enabled (observe), the
// controller keeps listening to isolated nodes so that their fault-free
// behaviour can be observed and rewarded; the activity vector still tells
// the applications the node is down.
func applyActivity(ctrl *tdma.Controller, active []bool, observe bool) {
	for j := 1; j < len(active); j++ {
		ctrl.SetIgnored(tdma.NodeID(j), !active[j] && !observe)
	}
}

// activityCache elides the per-node SetIgnored sweep on the packed path when
// the activity mask did not change since the last application — the common
// case of every steady-state round. Skipping is sound because SetIgnored is
// idempotent: an already-ignored sender keeps being dropped by ApplyDelivery
// without re-marking, and an already-heard sender needs no unmarking.
type activityCache struct {
	ctrl *tdma.Controller
	mask uint64
	have bool
}

func (c *activityCache) reset() { c.have = false }

func (c *activityCache) apply(ctrl *tdma.Controller, out core.RoundOutput, packed, observe bool) {
	if packed && c.have && c.ctrl == ctrl && c.mask == out.ActiveMask {
		return
	}
	applyActivity(ctrl, out.Active, observe)
	c.ctrl, c.mask, c.have = ctrl, out.ActiveMask, packed
}

// DiagRunner adapts a core.Protocol to the engine: it snapshots the
// controller, steps the protocol, applies isolation decisions to the
// controller, and stages the dissemination payload.
type DiagRunner struct {
	proto   *core.Protocol
	last    core.RoundOutput
	scratch inputScratch
	act     activityCache
	// hvs backs the health vectors a hooked Collector records from this
	// runner.
	hvs hvSlab
	// OnOutput, when set, observes every round output (used by collectors).
	OnOutput func(core.RoundOutput)

	// Round-start interface snapshot, captured by the engine for
	// dynamically scheduled nodes (core.Config.Dynamic). The value buffers
	// are runner-owned and reused across rounds.
	snapRound     int
	snapValues    [][]byte
	snapValid     []bool
	snapValidMask uint64
	haveSnap      bool
}

// CaptureSnapshot implements SnapshotTaker: it pins the node's read point to
// round start, which is what makes dynamic execution times sound (see
// core.Config.Dynamic).
func (r *DiagRunner) CaptureSnapshot(round int, ctrl *tdma.Controller) {
	if !r.proto.Config().Dynamic {
		return
	}
	values, valid := ctrl.ReadAll()
	n := r.proto.Config().N
	if r.snapValues == nil {
		r.snapValues = make([][]byte, n+1)
		r.snapValid = make([]bool, n+1)
	}
	for j := 1; j <= n; j++ {
		r.snapValues[j] = append(r.snapValues[j][:0], values[j]...)
		r.snapValid[j] = valid[j]
	}
	r.snapValidMask = ctrl.ValidMask()
	r.snapRound = round
	r.haveSnap = true
}

// ResetForRun returns the runner (and its protocol) to the freshly
// constructed state so one instance can be reused across campaign
// repetitions: the protocol restarts its warm-up, the last output and the
// dynamic-scheduling snapshot are dropped, and any OnOutput observer is
// detached (campaign loops attach a fresh collector per repetition).
func (r *DiagRunner) ResetForRun() {
	r.proto.Reset()
	r.last = core.RoundOutput{}
	r.OnOutput = nil
	r.haveSnap = false
	r.act.reset()
	r.hvs.reset()
}

// ResetConfig is ResetForRun with a configuration swap (same N), used when a
// reused cluster changes per-repetition parameters such as the internal
// schedule position L.
func (r *DiagRunner) ResetConfig(cfg core.Config) error {
	if err := r.proto.ResetConfig(cfg); err != nil {
		return err
	}
	r.last = core.RoundOutput{}
	r.OnOutput = nil
	r.haveSnap = false
	r.act.reset()
	r.hvs.reset()
	return nil
}

var _ Runner = (*DiagRunner)(nil)

// NewDiagRunner builds the runner and its protocol instance.
func NewDiagRunner(cfg core.Config) (*DiagRunner, error) {
	return newDiagRunner(cfg, false)
}

// NewScalarDiagRunner is NewDiagRunner pinned to the scalar reference
// representation (see ClusterConfig.ForceScalar); the divergence bisector
// runs packed and scalar variants of the same cluster side by side with it.
func NewScalarDiagRunner(cfg core.Config) (*DiagRunner, error) {
	return newDiagRunner(cfg, true)
}

func newDiagRunner(cfg core.Config, forceScalar bool) (*DiagRunner, error) {
	build := core.NewProtocol
	if forceScalar {
		build = core.NewScalarProtocol
	}
	proto, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return &DiagRunner{proto: proto}, nil
}

// Protocol returns the wrapped protocol.
func (r *DiagRunner) Protocol() *core.Protocol { return r.proto }

// Last returns the most recent round output. Its references are the
// protocol's (see core.RoundOutput): valid for the next three rounds only.
//
//ttdiag:noretain
func (r *DiagRunner) Last() core.RoundOutput { return r.last }

// Run implements Runner. Within the packed bound it feeds the protocol
// plane-form inputs straight off the controller's validity mask — no
// []Opinion or []bool materialisation on the hot path. The returned payload
// is the protocol's ring-backed Send, which the engine copies into the
// controller's outbox at once.
//
//ttdiag:noretain results
func (r *DiagRunner) Run(round int, ctrl *tdma.Controller) ([]byte, error) {
	cfg := r.proto.Config()
	dynamic := cfg.Dynamic
	if dynamic && (!r.haveSnap || r.snapRound != round) {
		return nil, fmt.Errorf("sim: node %d: dynamic protocol without a round-%d snapshot", cfg.ID, round)
	}
	var out core.RoundOutput
	var err error
	if r.proto.Packed() {
		var in core.PackedRoundInput
		if dynamic {
			in = r.scratch.buildPacked(round, cfg.N, r.snapValues, r.snapValidMask, ctrl)
		} else {
			values, _ := ctrl.ReadAll()
			in = r.scratch.buildPacked(round, cfg.N, values, ctrl.ValidMask(), ctrl)
		}
		out, err = r.proto.StepPacked(in)
	} else {
		var in core.RoundInput
		if dynamic {
			in = r.scratch.build(round, cfg.N, r.snapValues, r.snapValid, ctrl)
		} else {
			in = r.scratch.buildRoundInput(round, cfg.N, ctrl)
		}
		out, err = r.proto.Step(in)
	}
	if err != nil {
		return nil, err
	}
	r.act.apply(ctrl, out, r.proto.Packed(), cfg.PR.ReintegrationThreshold > 0)
	//lint:ignore no-retain Last hands the output on under the same three-Step window (//ttdiag:noretain)
	r.last = out
	if r.OnOutput != nil {
		r.OnOutput(out)
	}
	return out.Send, nil
}

// MembershipRunner adapts a membership.Service to the engine.
type MembershipRunner struct {
	svc     *membership.Service
	last    membership.Output
	scratch inputScratch
	act     activityCache
	hvs     hvSlab
	// OnOutput, when set, observes every round output.
	OnOutput func(membership.Output)
	// sink, when set, receives a KindViewChange causal event whenever a new
	// view is installed. The cluster builders wire it for node 1 only (view
	// synchrony makes every obedient node's transitions identical, so one
	// observer suffices); like the engine sink it is cluster wiring, not a
	// per-run observer, and survives ResetForRun.
	sink trace.Sink
}

// ResetForRun returns the runner (and its membership service) to the freshly
// constructed state so one instance can be reused across campaign
// repetitions; any OnOutput observer is detached.
func (r *MembershipRunner) ResetForRun() {
	r.svc.Reset()
	r.last = membership.Output{}
	r.OnOutput = nil
	r.act.reset()
	r.hvs.reset()
}

var _ Runner = (*MembershipRunner)(nil)

// NewMembershipRunner builds the runner and its membership service.
func NewMembershipRunner(cfg core.Config) (*MembershipRunner, error) {
	svc, err := membership.New(cfg)
	if err != nil {
		return nil, err
	}
	return &MembershipRunner{svc: svc}, nil
}

// NewScalarMembershipRunner is NewMembershipRunner pinned to the scalar
// reference representation (see ClusterConfig.ForceScalar).
func NewScalarMembershipRunner(cfg core.Config) (*MembershipRunner, error) {
	svc, err := membership.NewScalar(cfg)
	if err != nil {
		return nil, err
	}
	return &MembershipRunner{svc: svc}, nil
}

// Service returns the wrapped membership service.
func (r *MembershipRunner) Service() *membership.Service { return r.svc }

// Last returns the most recent round output; like DiagRunner.Last, its
// references are valid for the next three rounds only.
//
//ttdiag:noretain
func (r *MembershipRunner) Last() membership.Output { return r.last }

// View returns the node's current membership view.
func (r *MembershipRunner) View() membership.View { return r.svc.View() }

// Run implements Runner; like DiagRunner.Run it stays in plane form within
// the packed bound and returns the protocol's ring-backed Send.
//
//ttdiag:noretain results
func (r *MembershipRunner) Run(round int, ctrl *tdma.Controller) ([]byte, error) {
	proto := r.svc.Protocol()
	cfg := proto.Config()
	var out membership.Output
	var err error
	if proto.Packed() {
		values, _ := ctrl.ReadAll()
		out, err = r.svc.StepPacked(r.scratch.buildPacked(round, cfg.N, values, ctrl.ValidMask(), ctrl))
	} else {
		out, err = r.svc.Step(r.scratch.buildRoundInput(round, cfg.N, ctrl))
	}
	if err != nil {
		return nil, err
	}
	r.act.apply(ctrl, out.Diag, proto.Packed(), cfg.PR.ReintegrationThreshold > 0)
	if r.sink != nil && out.ViewChanged {
		r.sink.Record(trace.Event{
			Round:  round,
			Kind:   trace.KindViewChange,
			Node:   cfg.ID,
			Detail: fmt.Sprintf("view %d installed (%d members)", out.View.ID, len(out.View.Members)),
		})
	}
	//lint:ignore no-retain Last hands the output on under the same three-Step window (//ttdiag:noretain)
	r.last = out
	if r.OnOutput != nil {
		r.OnOutput(out)
	}
	return out.Diag.Send, nil
}
