package core

import (
	"bytes"
	"testing"

	"ttdiag/internal/rng"
)

// FuzzDecodeSyndrome checks that decoding never panics and that every
// successfully decoded syndrome re-encodes to the same bytes (the wire
// format is canonical).
func FuzzDecodeSyndrome(f *testing.F) {
	f.Add([]byte{0xff}, 4)
	f.Add([]byte{0x00, 0x01}, 9)
	f.Add([]byte{}, 2)
	f.Add([]byte{0xaa, 0x55, 0x0f}, 20)
	f.Fuzz(func(t *testing.T, data []byte, nRaw int) {
		n := nRaw%128 + 1
		if n < 0 {
			n = -n
		}
		s, err := DecodeSyndrome(data, n)
		if err != nil {
			return
		}
		if s.N() != n {
			t.Fatalf("decoded syndrome covers %d nodes, want %d", s.N(), n)
		}
		re := s.Encode()
		// Canonical form: trailing padding bits beyond n must be zero in
		// the re-encoding; the original may have had garbage there, so
		// compare only the meaningful bits by re-decoding.
		s2, err := DecodeSyndrome(re, n)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !s.Equal(s2) {
			t.Fatalf("decode/encode/decode not stable: %v vs %v", s, s2)
		}
		if !bytes.Equal(re, s2.Encode()) {
			t.Fatalf("encoding not canonical after first round trip")
		}
	})
}

// FuzzHMaj checks the voting invariants over arbitrary vote vectors: no
// panic, a decision iff any vote is non-ε, Faulty only on strict majority.
func FuzzHMaj(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{})
	f.Add([]byte{2, 2, 2, 2})
	f.Add([]byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		votes := make([]Opinion, len(raw))
		var faulty, healthy int
		for i, b := range raw {
			votes[i] = Opinion(b % 3)
			switch votes[i] {
			case Faulty:
				faulty++
			case Healthy:
				healthy++
			}
		}
		v, ok := HMaj(votes)
		if ok != (faulty+healthy > 0) {
			t.Fatalf("decided=%v with %d non-erased votes", ok, faulty+healthy)
		}
		if !ok {
			return
		}
		if v == Faulty && faulty <= healthy {
			t.Fatalf("convicted without strict majority: %d vs %d", faulty, healthy)
		}
		if v == Healthy && faulty > healthy {
			t.Fatalf("acquitted against strict majority: %d vs %d", faulty, healthy)
		}
	})
}

// FuzzProtocolStep drives a protocol instance with arbitrary (but
// well-formed) inputs derived from fuzz data: it must never panic and must
// preserve its internal invariants (health vectors always fully decided
// after warm-up).
func FuzzProtocolStep(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x13, 0x37}, uint8(0))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, lRaw uint8) {
		const n = 4
		l := int(lRaw) % n
		p, err := NewProtocol(Config{
			N: n, ID: 2, L: l, SendCurrRound: l < 2,
			PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		for round := 0; round < 12; round++ {
			in := RoundInput{
				Round:    round,
				DMs:      make([]Syndrome, n+1),
				Validity: NewSyndrome(n, Healthy),
			}
			for j := 1; j <= n; j++ {
				b := next()
				if b&0x80 != 0 {
					in.Validity[j] = Faulty
					continue
				}
				s := NewSyndrome(n, Healthy)
				for m := 1; m <= n; m++ {
					if b&(1<<uint(m)) != 0 {
						s[m] = Faulty
					}
				}
				in.DMs[j] = s
			}
			out, err := p.Step(in)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if round >= 3 && out.ConsHV == nil {
				t.Fatalf("round %d: no health vector after warm-up", round)
			}
			if out.ConsHV != nil {
				for j := 1; j <= n; j++ {
					if out.ConsHV[j] != Faulty && out.ConsHV[j] != Healthy {
						t.Fatalf("round %d: undecided entry %d", round, j)
					}
				}
			}
		}
	})
}

// FuzzRestoreProtocol feeds arbitrary bytes to the checkpoint decoder. Every
// input must be rejected with an error or restore without panicking; a
// restored protocol's snapshot must be a fixed point of one more
// restore/snapshot pass, and the protocol must step three rounds. Seeds are
// snapshots of packed N=4 and N=64, membership-mode and scalar N=65
// protocols taken at several rounds.
func FuzzRestoreProtocol(f *testing.F) {
	pr := PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 3}
	for _, cfg := range []Config{
		{N: 4, ID: 2, L: 3, PR: pr},
		{N: 64, ID: 1, L: 0, SendCurrRound: true, Dynamic: true, PR: pr},
		{N: 7, ID: 4, L: 3, SendCurrRound: true, AllSendCurrRound: true, Mode: ModeMembership, StartRound: 5, PR: pr},
		{N: 65, ID: 3, L: 2, SendCurrRound: true, PR: pr},
	} {
		p, err := NewProtocol(cfg)
		if err != nil {
			f.Fatal(err)
		}
		st := rng.NewStream(int64(cfg.N))
		for r := 0; r < 9; r++ {
			if r%4 == 0 {
				data, err := p.Snapshot()
				if err != nil {
					f.Fatal(err)
				}
				f.Add(data)
			}
			if _, err := p.Step(randomStepInput(st, cfg.N, cfg.StartRound+r)); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := RestoreProtocol(data)
		if err != nil {
			return
		}
		first, err := p.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a restored protocol: %v", err)
		}
		again, err := RestoreProtocol(first)
		if err != nil {
			t.Fatalf("snapshot of a restored protocol rejected: %v\n%s", err, first)
		}
		second, err := again.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("restore/snapshot is not idempotent:\nfirst  %s\nsecond %s", first, second)
		}
		n := p.Config().N
		for r := 0; r < 3; r++ {
			in := RoundInput{
				Round:    p.Config().StartRound + p.steps,
				DMs:      make([]Syndrome, n+1),
				Validity: NewSyndrome(n, Healthy),
			}
			for j := 1; j <= n; j += 2 {
				in.DMs[j] = NewSyndrome(n, Healthy)
			}
			if _, err := p.Step(in); err != nil {
				t.Fatalf("step %d after restore: %v", r, err)
			}
		}
	})
}
