package core

import (
	"bytes"
	"testing"

	"ttdiag/internal/rng"
)

// randomSyndrome fills an n-node syndrome with Faulty/Healthy/Erased entries
// (pErased chance of ε per entry).
func randomSyndrome(st *rng.Stream, n int, pErased float64) Syndrome {
	s := NewSyndrome(n, Faulty)
	for j := 1; j <= n; j++ {
		if st.Bool(pErased) {
			s[j] = Erased
		} else {
			s[j] = Opinion(st.Intn(2))
		}
	}
	return s
}

func TestBitSyndromeRoundtrip(t *testing.T) {
	st := rng.NewStream(11)
	for trial := 0; trial < 500; trial++ {
		n := st.Intn(MaxPackedN) + 1
		s := randomSyndrome(st, n, 0.2)
		b, err := PackSyndrome(s)
		if err != nil {
			t.Fatalf("PackSyndrome: %v", err)
		}
		if b.Op&^b.Known != 0 {
			t.Fatalf("n=%d: Op ⊄ Known: op=%x known=%x", n, b.Op, b.Known)
		}
		back := b.Unpack(n)
		if !back.Equal(s) {
			t.Fatalf("n=%d: roundtrip %s != %s", n, back, s)
		}
		for j := 1; j <= n; j++ {
			if got := b.Get(j); got != s[j] {
				t.Fatalf("n=%d: Get(%d) = %v, want %v", n, j, got, s[j])
			}
		}
		if got, want := b.CountFaulty(n), s.CountFaulty(); got != want {
			t.Fatalf("n=%d: CountFaulty = %d, want %d", n, got, want)
		}
		if got, want := b.String(n), s.String(); got != want {
			t.Fatalf("n=%d: String = %q, want %q", n, got, want)
		}
	}
}

func TestBitSyndromeSet(t *testing.T) {
	var b BitSyndrome
	b.Set(1, Healthy)
	b.Set(2, Faulty)
	b.Set(3, Healthy)
	b.Set(3, Erased)
	if got := b.String(4); got != "10ee" {
		t.Fatalf("String = %q, want 10ee", got)
	}
	// Out-of-range writes and reads are inert.
	b.Set(0, Healthy)
	b.Set(65, Healthy)
	if b.Get(0) != Erased || b.Get(65) != Erased {
		t.Fatalf("out-of-range entries must read Erased")
	}
}

func TestBitSyndromeNormalizesInvalidOpinions(t *testing.T) {
	s := NewSyndrome(3, Healthy)
	s[2] = Opinion(7) // outside {Faulty, Healthy, Erased}
	b := packSyndrome(s)
	if got := b.Get(2); got != Erased {
		t.Fatalf("invalid opinion packed to %v, want Erased", got)
	}
}

func TestPackSyndromeBound(t *testing.T) {
	if _, err := PackSyndrome(NewSyndrome(MaxPackedN+1, Healthy)); err == nil {
		t.Fatalf("PackSyndrome accepted %d nodes", MaxPackedN+1)
	}
	if _, err := PackSyndrome(NewSyndrome(MaxPackedN, Healthy)); err != nil {
		t.Fatalf("PackSyndrome rejected %d nodes: %v", MaxPackedN, err)
	}
}

// TestBitSyndromeWireEquivalence pins the packed encode/decode to the scalar
// wire format: identical bytes out, identical syndromes back in.
func TestBitSyndromeWireEquivalence(t *testing.T) {
	st := rng.NewStream(12)
	for trial := 0; trial < 500; trial++ {
		n := st.Intn(MaxPackedN) + 1
		s := randomSyndrome(st, n, 0.2)
		want := s.Encode()
		got := make([]byte, EncodedLen(n))
		packSyndrome(s).EncodeInto(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: packed encoding % x != scalar % x", n, got, want)
		}
		// Decode side: every received entry is known, ε/Faulty both read
		// back as Faulty — identical to DecodeSyndrome.
		b, err := BitSyndromeFromWire(want, n)
		if err != nil {
			t.Fatalf("n=%d: BitSyndromeFromWire: %v", n, err)
		}
		scalar, err := DecodeSyndrome(want, n)
		if err != nil {
			t.Fatalf("n=%d: DecodeSyndrome: %v", n, err)
		}
		if unpacked := b.Unpack(n); !unpacked.Equal(scalar) {
			t.Fatalf("n=%d: wire decode %s != scalar %s", n, unpacked, scalar)
		}
	}
}

// TestBitSyndromeFromWireMatchesByteLoop pins the wire decoder, including
// its 8-byte load for 57..64 nodes, against a plain byte-by-byte
// little-endian assembly at every width from 0 to 64, with random payloads
// whose padding bits are set too.
func TestBitSyndromeFromWireMatchesByteLoop(t *testing.T) {
	st := rng.NewStream(13)
	for n := 0; n <= MaxPackedN; n++ {
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, EncodedLen(n))
			st.Bytes(data)
			var w uint64
			for i, v := range data {
				w |= uint64(v) << uint(8*i)
			}
			want := BitSyndrome{Op: w & PlaneMask(n), Known: PlaneMask(n)}
			got, err := BitSyndromeFromWire(data, n)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if got != want {
				t.Fatalf("n=%d payload % x: got %+v, want %+v", n, data, got, want)
			}
		}
		// Every length other than EncodedLen(n) is rejected, the 8-byte
		// length included.
		for _, l := range []int{EncodedLen(n) - 1, EncodedLen(n) + 1, 8} {
			if l < 0 || l == EncodedLen(n) {
				continue
			}
			if _, err := BitSyndromeFromWire(make([]byte, l), n); err == nil {
				t.Fatalf("n=%d: accepted a %d-byte payload", n, l)
			}
		}
	}
}

// TestUnpackIntoMatchesGet pins the shift-based UnpackInto against Get at
// every width up to a few entries past MaxPackedN, including planes that
// break Op ⊆ Known (Get reads such entries as ε).
func TestUnpackIntoMatchesGet(t *testing.T) {
	st := rng.NewStream(14)
	for n := 0; n <= MaxPackedN+6; n++ {
		for trial := 0; trial < 20; trial++ {
			b := BitSyndrome{Op: st.Uint64(), Known: st.Uint64()}
			dst := make(Syndrome, n+1)
			b.UnpackInto(dst)
			for j := 0; j <= n; j++ {
				if dst[j] != b.Get(j) {
					t.Fatalf("n=%d planes %+v: entry %d = %v, Get says %v", n, b, j, dst[j], b.Get(j))
				}
			}
		}
	}
}

func TestBitSyndromeFromWireErrors(t *testing.T) {
	if _, err := BitSyndromeFromWire(make([]byte, 1), 16); err == nil {
		t.Fatalf("accepted a short payload")
	}
	if _, err := BitSyndromeFromWire(make([]byte, 9), MaxPackedN+1); err == nil {
		t.Fatalf("accepted n > MaxPackedN")
	}
}

func TestPlaneMask(t *testing.T) {
	tests := []struct {
		n    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {8, 0xff}, {63, ^uint64(0) >> 1}, {64, ^uint64(0)},
	}
	for _, tt := range tests {
		if got := PlaneMask(tt.n); got != tt.want {
			t.Errorf("PlaneMask(%d) = %x, want %x", tt.n, got, tt.want)
		}
	}
}
