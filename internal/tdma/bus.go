package tdma

import (
	"fmt"

	"ttdiag/internal/trace"
)

// OutcomeClass is the ground-truth classification of one transmission under
// the Customizable Fault-Effect Model (Sec. 4): it describes the
// communication errors actually produced on the bus, independent of what any
// protocol later diagnoses. Experiments use it to audit correctness,
// completeness and consistency.
type OutcomeClass int

// Ground-truth transmission outcome classes.
const (
	// OutcomeCorrect: every receiver got the original payload, validity 1.
	OutcomeCorrect OutcomeClass = iota + 1
	// OutcomeBenign: the message was locally detectable by all receivers.
	OutcomeBenign
	// OutcomeMalicious: all receivers got the same, locally undetectable
	// but semantically incorrect message.
	OutcomeMalicious
	// OutcomeAsymmetric: the message was locally detectable by at least one
	// but not all receivers.
	OutcomeAsymmetric
)

// String returns the paper's name for the class.
func (o OutcomeClass) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeBenign:
		return "benign"
	case OutcomeMalicious:
		return "malicious"
	case OutcomeAsymmetric:
		return "asymmetric"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TxReport is the bus's record of one slot transmission: what was sent, what
// every receiver observed, and the sender-side collision verdict.
type TxReport struct {
	Tx Transmission
	// Deliveries[r] (1-based) is what receiver r observed. The sender's own
	// entry reflects its loop-back reception.
	Deliveries []Delivery
	// Collision is the sender-side collision-detector verdict.
	Collision bool
	// Class is the report's ground-truth outcome class, counted by the bus
	// while it delivered the slot: equal to Classify, without the second
	// pass over the deliveries.
	Class OutcomeClass
}

// Clone returns a retain-safe deep copy of the report: the bus reuses the
// report (and the payload slices it references) for the next slot, so
// observers that keep reports across slots must clone them first.
func (r *TxReport) Clone() *TxReport {
	cp := *r
	cp.Tx.Payload = append([]byte(nil), r.Tx.Payload...)
	cp.Deliveries = make([]Delivery, len(r.Deliveries))
	for i, d := range r.Deliveries {
		d.Payload = append([]byte(nil), d.Payload...)
		cp.Deliveries[i] = d
	}
	return &cp
}

// Classify returns the ground-truth outcome class of the transmission with
// respect to the receivers other than the sender, recounted from the
// deliveries. Reports produced by Bus.TransmitSlot already carry it in
// Class.
func (r *TxReport) Classify() OutcomeClass {
	var invalid, valid, altered int
	for rcv := 1; rcv < len(r.Deliveries); rcv++ {
		if NodeID(rcv) == r.Tx.Sender {
			continue
		}
		d := r.Deliveries[rcv]
		if !d.Valid {
			invalid++
			continue
		}
		valid++
		if !bytesEqual(d.Payload, r.Tx.Payload) {
			altered++
		}
	}
	return classOf(invalid, valid, altered)
}

// classOf maps the receiver tallies of one transmission — invalid
// deliveries, valid ones, and valid ones whose payload differs from the
// transmitted one — to its outcome class.
func classOf(invalid, valid, altered int) OutcomeClass {
	switch {
	case invalid > 0 && valid > 0:
		return OutcomeAsymmetric
	case invalid > 0:
		return OutcomeBenign
	case altered > 0:
		return OutcomeMalicious
	default:
		return OutcomeCorrect
	}
}

// Bus is the shared broadcast medium. It executes slot transmissions
// according to the global communication schedule, applying the configured
// disturbances per receiver, updating every attached controller, and
// reporting ground truth for audits.
type Bus struct {
	sched *Schedule
	ctrls []*Controller // 1-based by node ID
	// attached counts the non-nil entries of ctrls.
	attached int
	dist     Disturbances
	sink     trace.Sink

	// frames[s] (1-based) is the frame sender s last put on the bus: a copy
	// of its staged outbox, rewritten only at s's own slot. Undisturbed
	// receivers hold it by reference as their copy of variable s, which is
	// sound because every receiver's copy of s is replaced in that same
	// slot, before the frame's bytes change.
	frames [][]byte
	// tx and report are the bus's reusable in-flight transmission and
	// per-slot report, overwritten on every TransmitSlot instead of
	// allocated per slot.
	tx     Transmission
	report TxReport
}

// NewBus creates a bus for the given schedule. All N controllers must be
// attached before the first transmission.
func NewBus(sched *Schedule, sink trace.Sink) *Bus {
	if sink == nil {
		sink = trace.Discard{}
	}
	return &Bus{
		sched:  sched,
		ctrls:  make([]*Controller, sched.N()+1),
		frames: make([][]byte, sched.N()+1),
		sink:   sink,
		report: TxReport{Deliveries: make([]Delivery, sched.N()+1)},
	}
}

// Schedule returns the bus's global communication schedule.
func (b *Bus) Schedule() *Schedule { return b.sched }

// Attach registers a controller on the bus.
func (b *Bus) Attach(c *Controller) error {
	if c.N() != b.sched.N() {
		return fmt.Errorf("tdma: controller for %d nodes attached to %d-node bus", c.N(), b.sched.N())
	}
	if int(c.ID()) >= len(b.ctrls) || c.ID() < 1 {
		return fmt.Errorf("tdma: controller id %d out of range", c.ID())
	}
	if b.ctrls[c.ID()] != nil {
		return fmt.Errorf("tdma: controller %d already attached", c.ID())
	}
	b.ctrls[c.ID()] = c
	b.attached++
	return nil
}

// Controller returns the attached controller of the given node, or nil.
func (b *Bus) Controller(id NodeID) *Controller {
	if id < 1 || int(id) >= len(b.ctrls) {
		return nil
	}
	return b.ctrls[id]
}

// AddDisturbance appends a disturbance to the bus's filter chain.
func (b *Bus) AddDisturbance(d Disturbance) { b.dist = append(b.dist, d) }

// ClearDisturbances removes all disturbances.
func (b *Bus) ClearDisturbances() { b.dist = nil }

// TransmitSlot executes the transmission of the given slot (1-based) in the
// given round (0-based): the slot owner's staged interface value is
// broadcast, each receiver's controller is updated with its (possibly
// disturbed) delivery, and the sender's collision detector is refreshed.
// The report's outcome class is counted along the way.
//
// Deliveries that leave the payload as the bus's frame go into the
// controllers by reference; deliveries a disturbance replaced are copied,
// so a disturbance keeps ownership of the payloads it returns.
//
// The returned report is bus-owned scratch, overwritten by the next
// TransmitSlot — observers that keep reports across slots must use
// TxReport.Clone.
//
//ttdiag:noretain
func (b *Bus) TransmitSlot(round, slot int) (*TxReport, error) {
	if !b.sched.ValidSlot(slot) {
		return nil, fmt.Errorf("tdma: invalid slot %d", slot)
	}
	sender := b.sched.SlotOwner(slot)
	sc := b.ctrls[sender]
	if sc == nil {
		return nil, fmt.Errorf("tdma: no controller attached for node %d", sender)
	}
	// Checked before the frame is rewritten, so a failed slot leaves no
	// receiver holding a frame it was not redelivered.
	if b.attached < b.sched.N() {
		for rcv := 1; rcv <= b.sched.N(); rcv++ {
			if b.ctrls[rcv] == nil {
				return nil, fmt.Errorf("tdma: no controller attached for node %d", rcv)
			}
		}
	}
	start, end := b.sched.SlotWindow(round, slot)
	frame := append(b.frames[sender][:0], sc.Outbox()...)
	b.frames[sender] = frame
	// The transmission is built in bus-owned scratch: handing a pointer to
	// the disturbance interface would otherwise heap-allocate it every slot.
	tx := &b.tx
	*tx = Transmission{
		Sender:  sender,
		Round:   round,
		Slot:    slot,
		Start:   start,
		End:     end,
		Payload: frame,
	}

	report := &b.report
	report.Tx = *tx
	var invalid, valid, altered int
	for rcv := 1; rcv <= b.sched.N(); rcv++ {
		d := Delivery{Valid: true, Payload: frame}
		if len(b.dist) > 0 {
			d = b.dist.Deliver(tx, NodeID(rcv), d)
		}
		if !d.Valid {
			d.Payload = nil
		}
		report.Deliveries[rcv] = d
		shared := d.Valid && sameFrame(d.Payload, frame)
		if NodeID(rcv) != sender {
			switch {
			case !d.Valid:
				invalid++
			case shared:
				valid++
			default:
				valid++
				if !bytesEqual(d.Payload, frame) {
					altered++
				}
			}
		}
		if shared {
			b.ctrls[rcv].applyFrame(sender, frame)
		} else {
			b.ctrls[rcv].ApplyDelivery(sender, d)
		}
	}
	report.Class = classOf(invalid, valid, altered)

	// The sender's loop-back validity is governed by its local collision
	// detector: if the message could not be read back from the bus, the
	// loop-back copy is invalid too.
	report.Collision = b.dist.SenderCollision(tx, false)
	sc.RecordCollision(round, report.Collision)
	if report.Collision {
		sc.ApplyDelivery(sender, Delivery{})
	}

	b.sink.Record(trace.Event{
		At:     start,
		Round:  round,
		Kind:   trace.KindTransmit,
		Node:   int(sender),
		Detail: report.Class.String(),
	})
	return report, nil
}

// sameFrame reports whether p is still the bus frame f itself: the same
// backing array and length, not merely equal bytes.
func sameFrame(p, f []byte) bool {
	return len(p) == len(f) && (len(p) == 0 || &p[0] == &f[0])
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
