package tdma

import (
	"bytes"
	"testing"

	"ttdiag/internal/rng"
)

// Per-receiver actions of randomDisturbance.
const (
	actKeep     = iota // leave the delivery as decided so far
	actDrop            // locally detectable: clear validity
	actCorrupt         // malicious: different bytes from an owned buffer
	actEqual           // malicious in form only: an owned copy of equal bytes
	actTruncate        // a shorter view of the frame itself
	actCount
)

// randomDisturbance degrades deliveries by a pre-drawn per-receiver plan.
// Corrupted and equal-content payloads come from buffers the disturbance
// owns and scribbles over after the slot, which must not reach any
// controller.
type randomDisturbance struct {
	plan    []int // 1-based by receiver
	collide bool
	owned   [][]byte // 1-based by receiver
}

func (d *randomDisturbance) Deliver(_ *Transmission, rcv NodeID, del Delivery) Delivery {
	if !del.Valid {
		return del
	}
	switch d.plan[rcv] {
	case actDrop:
		return Delivery{}
	case actCorrupt:
		buf := append(d.owned[rcv][:0], del.Payload...)
		buf = append(buf, 0x5A)
		d.owned[rcv] = buf
		del.Payload = buf
	case actEqual:
		d.owned[rcv] = append(d.owned[rcv][:0], del.Payload...)
		del.Payload = d.owned[rcv]
	case actTruncate:
		if len(del.Payload) > 0 {
			del.Payload = del.Payload[:len(del.Payload)-1]
		}
	}
	return del
}

func (d *randomDisturbance) SenderCollision(_ *Transmission, collided bool) bool {
	return collided || d.collide
}

func (d *randomDisturbance) scribble() {
	for _, b := range d.owned {
		for i := range b {
			b[i] ^= 0xFF
		}
	}
}

// TestTransmitSlotClassMatchesClassify drives a bus through random
// disturbance chains — benign blackouts, SOS-style asymmetric drops, corrupted
// payloads, equal-content replacements, truncated frames and sender
// collisions — and checks that the class the bus counts while delivering
// equals Classify's recount, and that every controller ends each slot
// holding exactly what it was delivered: frames shared by reference are
// never rewritten under a receiver, and disturbance-owned payloads
// scribbled after the slot leave the controllers' copies unchanged.
func TestTransmitSlotClassMatchesClassify(t *testing.T) {
	const n = 5
	st := rng.NewStream(41)
	bus, ctrls := newTestBus(t, n)
	// want[r][s] is what receiver r must hold for sender s.
	want := make([][][]byte, n+1)
	for r := range want {
		want[r] = make([][]byte, n+1)
	}
	seen := map[OutcomeClass]int{}
	for round := 0; round < 300; round++ {
		for slot := 1; slot <= n; slot++ {
			sender := NodeID(slot)
			payload := make([]byte, 1+st.Intn(3))
			st.Bytes(payload)
			ctrls[sender].WriteInterface(payload)

			bus.ClearDisturbances()
			var dists []*randomDisturbance
			for k := st.Intn(3); k > 0; k-- {
				d := &randomDisturbance{plan: make([]int, n+1), owned: make([][]byte, n+1), collide: st.Bool(0.1)}
				blackout := st.Bool(0.1) // benign: nobody receives the frame
				for r := 1; r <= n; r++ {
					switch {
					case blackout:
						d.plan[r] = actDrop
					case st.Bool(0.4):
						d.plan[r] = st.Intn(actCount)
					}
				}
				dists = append(dists, d)
				bus.AddDisturbance(d)
			}
			rep, err := bus.TransmitSlot(round, slot)
			if err != nil {
				t.Fatal(err)
			}
			if got, recount := rep.Class, rep.Classify(); got != recount {
				t.Fatalf("round %d slot %d: stored class %v, Classify %v", round, slot, got, recount)
			}
			seen[rep.Class]++
			for r := 1; r <= n; r++ {
				d := rep.Deliveries[r]
				want[r][sender] = nil
				if d.Valid && len(d.Payload) > 0 && !(NodeID(r) == sender && rep.Collision) {
					want[r][sender] = append([]byte(nil), d.Payload...)
				}
			}
			for _, d := range dists {
				d.scribble()
			}
			for r := 1; r <= n; r++ {
				for s := 1; s <= n; s++ {
					got, _ := ctrls[r].ReadValue(NodeID(s))
					if !bytes.Equal(got, want[r][s]) || (got == nil) != (want[r][s] == nil) {
						t.Fatalf("round %d slot %d: receiver %d holds % x for sender %d, want % x",
							round, slot, r, got, s, want[r][s])
					}
				}
			}
		}
	}
	for _, class := range []OutcomeClass{OutcomeCorrect, OutcomeBenign, OutcomeMalicious, OutcomeAsymmetric} {
		if seen[class] == 0 {
			t.Errorf("no %v transmission generated; the chains do not cover the class", class)
		}
	}
}

// TestTransmitSlotEqualContentIsCorrect pins the class of a payload a
// disturbance replaced by an equal copy: the bytes decide, not the buffer.
func TestTransmitSlotEqualContentIsCorrect(t *testing.T) {
	bus, ctrls := newTestBus(t, 4)
	d := &randomDisturbance{plan: []int{0, actEqual, actEqual, actEqual, actEqual}, owned: make([][]byte, 5)}
	bus.AddDisturbance(d)
	ctrls[3].WriteInterface([]byte{0x42, 0x17})
	rep, err := bus.TransmitSlot(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != OutcomeCorrect || rep.Classify() != OutcomeCorrect {
		t.Fatalf("class %v / Classify %v, want correct", rep.Class, rep.Classify())
	}
	d.scribble()
	for id := 1; id <= 4; id++ {
		if v, ok := ctrls[id].ReadValue(3); !ok || !bytes.Equal(v, []byte{0x42, 0x17}) {
			t.Fatalf("node %d holds % x/%v after the disturbance reused its buffer", id, v, ok)
		}
	}
}
