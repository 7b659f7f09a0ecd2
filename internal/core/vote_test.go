package core

import (
	"strings"
	"testing"
	"testing/quick"

	"ttdiag/internal/rng"
)

func TestHMajTruthTable(t *testing.T) {
	tests := []struct {
		name    string
		votes   []Opinion
		want    Opinion
		decided bool
	}{
		{name: "all_healthy", votes: []Opinion{1, 1, 1}, want: Healthy, decided: true},
		{name: "all_faulty", votes: []Opinion{0, 0, 0}, want: Faulty, decided: true},
		{name: "majority_faulty", votes: []Opinion{0, 0, 1}, want: Faulty, decided: true},
		{name: "majority_healthy", votes: []Opinion{0, 1, 1}, want: Healthy, decided: true},
		{name: "tie_is_healthy", votes: []Opinion{0, 1}, want: Healthy, decided: true},
		{name: "erased_excluded", votes: []Opinion{2, 0, 2}, want: Faulty, decided: true},
		{name: "single_vote", votes: []Opinion{0}, want: Faulty, decided: true},
		{name: "all_erased_bottom", votes: []Opinion{2, 2, 2}, decided: false},
		{name: "empty_bottom", votes: nil, decided: false},
		{name: "erased_tiebreak", votes: []Opinion{2, 0, 1}, want: Healthy, decided: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := HMaj(tt.votes)
			if ok != tt.decided {
				t.Fatalf("decided = %v, want %v", ok, tt.decided)
			}
			if ok && got != tt.want {
				t.Fatalf("HMaj = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestHMajHybridFaultBound checks Lemma 2's voting core: with b erased votes,
// and a+s adversarial votes, the N-1-b-a-s correct votes prevail whenever
// N > 2a+2s+b+1.
func TestHMajHybridFaultBound(t *testing.T) {
	st := rng.NewStream(1)
	for trial := 0; trial < 2000; trial++ {
		n := st.Intn(30) + 4
		// Pick fault counts satisfying the bound.
		b := st.Intn(n - 3)
		maxAS := (n - b - 2) / 2
		as := 0
		if maxAS > 0 {
			as = st.Intn(maxAS + 1)
		}
		if n <= 2*as+b+1 {
			continue
		}
		truth := Opinion(st.Intn(2))
		votes := make([]Opinion, 0, n-1)
		for i := 0; i < b; i++ {
			votes = append(votes, Erased)
		}
		for i := 0; i < as; i++ {
			votes = append(votes, Opinion(st.Intn(2))) // adversarial: arbitrary
		}
		for len(votes) < n-1 {
			votes = append(votes, truth)
		}
		// Shuffle.
		for i := range votes {
			j := st.Intn(i + 1)
			votes[i], votes[j] = votes[j], votes[i]
		}
		got, ok := HMaj(votes)
		if !ok {
			t.Fatalf("n=%d b=%d as=%d: undecided despite correct votes", n, b, as)
		}
		if got != truth {
			t.Fatalf("n=%d b=%d as=%d truth=%v: voted %v", n, b, as, truth, got)
		}
	}
}

func TestMatrixRowValidation(t *testing.T) {
	m := NewMatrix(4)
	if err := m.SetRow(0, nil); err == nil {
		t.Error("row 0 accepted")
	}
	if err := m.SetRow(5, nil); err == nil {
		t.Error("row 5 accepted")
	}
	if err := m.SetRow(1, NewSyndrome(3, Healthy)); err == nil {
		t.Error("wrong-size row accepted")
	}
	if err := m.SetRow(1, NewSyndrome(4, Healthy)); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if m.Row(0) != nil || m.Row(5) != nil {
		t.Error("out-of-range Row not nil")
	}
}

// TestMatrixTable1 reproduces Table 1 of the paper: nodes 3 and 4 are two
// coincident benign faulty senders in both the diagnosed round and the
// dissemination round. Rows 3 and 4 are ε; rows 1 and 2 accuse 3 and 4.
// The voted consistent health vector is 1 1 0 0.
func TestMatrixTable1(t *testing.T) {
	m := NewMatrix(4)
	row1 := NewSyndrome(4, Healthy)
	row1[3], row1[4] = Faulty, Faulty
	row2 := row1.Clone()
	if err := m.SetRow(1, row1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRow(2, row2); err != nil {
		t.Fatal(err)
	}
	// Rows 3 and 4 stay ε (their local syndromes were not received).

	want := []Opinion{Erased, Healthy, Healthy, Faulty, Faulty}
	for j := 1; j <= 4; j++ {
		got, ok := m.Vote(j)
		if !ok {
			// Column j of an all-ε pair: for j = 3 the votes come from rows
			// 1, 2, 4; rows 1 and 2 are set, so every column must decide.
			t.Fatalf("column %d undecided", j)
		}
		if got != want[j] {
			t.Errorf("cons_hv[%d] = %v, want %v", j, got, want[j])
		}
	}
}

func TestMatrixColumnExcludesSelfOpinion(t *testing.T) {
	m := NewMatrix(3)
	// Node 2's row claims node 2 is healthy; rows 1 and 3 say faulty.
	r1 := NewSyndrome(3, Healthy)
	r1[2] = Faulty
	r2 := NewSyndrome(3, Healthy) // self-opinion healthy
	r3 := r1.Clone()
	for j, r := range map[int]Syndrome{1: r1, 2: r2, 3: r3} {
		if err := m.SetRow(j, r); err != nil {
			t.Fatal(err)
		}
	}
	col := m.Column(2)
	if len(col) != 2 {
		t.Fatalf("column has %d votes, want 2", len(col))
	}
	got, ok := m.Vote(2)
	if !ok || got != Faulty {
		t.Fatalf("Vote(2) = %v,%v; the self-opinion must not rescue node 2", got, ok)
	}
}

func TestMatrixOpinionErasedRow(t *testing.T) {
	m := NewMatrix(4)
	if got := m.Opinion(1, 2); got != Erased {
		t.Fatalf("Opinion on ε row = %v", got)
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(2)
	r1 := NewSyndrome(2, Healthy)
	if err := m.SetRow(1, r1); err != nil {
		t.Fatal(err)
	}
	s := m.String()
	for _, want := range []string{"node 1", "node 2", "cons_hv", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// Property: H-maj never returns Erased as a decided value, and a decision is
// reached iff at least one vote is non-ε.
func TestHMajDecisionProperty(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		votes := make([]Opinion, len(raw))
		nonErased := false
		for i, b := range raw {
			votes[i] = Opinion(b % 3)
			if votes[i] != Erased {
				nonErased = true
			}
		}
		v, ok := HMaj(votes)
		if ok != nonErased {
			return false
		}
		return !ok || v == Faulty || v == Healthy
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTolerates(t *testing.T) {
	tests := []struct {
		n, a, s, b int
		want       bool
	}{
		{4, 0, 0, 1, true},   // single benign fault at N=4
		{4, 0, 0, 2, true},   // two coincident benign faults
		{4, 0, 0, 3, false},  // b = N-1 needs the Lemma 3 regime
		{4, 0, 1, 0, true},   // one malicious node
		{4, 0, 2, 0, false},  // two malicious nodes exceed the bound
		{4, 1, 0, 0, true},   // one asymmetric fault
		{4, 2, 0, 0, false},  // a <= 1 always
		{8, 1, 1, 2, true},   // 8 > 2+2+2+1
		{8, 1, 2, 1, false},  // 8 > 2+4+1+1 is false
		{4, -1, 0, 0, false}, // negative counts rejected
		{4, 0, -1, 0, false},
		{4, 0, 0, -1, false},
	}
	for _, tt := range tests {
		if got := Tolerates(tt.n, tt.a, tt.s, tt.b); got != tt.want {
			t.Errorf("Tolerates(%d,%d,%d,%d) = %v, want %v", tt.n, tt.a, tt.s, tt.b, got, tt.want)
		}
	}
}

func TestToleratesBenignOnly(t *testing.T) {
	if !ToleratesBenignOnly(4, 4) || !ToleratesBenignOnly(4, 3) || !ToleratesBenignOnly(4, 0) {
		t.Error("benign-only regime rejected valid b")
	}
	if ToleratesBenignOnly(4, 5) || ToleratesBenignOnly(4, -1) {
		t.Error("benign-only regime accepted invalid b")
	}
}

func TestMatrixN(t *testing.T) {
	if got := NewMatrix(6).N(); got != 6 {
		t.Fatalf("N() = %d", got)
	}
}

// TestMatrixOutOfRangeColumn pins that both storage representations answer
// a column index outside 1..N alike: Erased opinions, an empty tally, a ⊥
// vote and a column of N Erased entries.
func TestMatrixOutOfRangeColumn(t *testing.T) {
	for _, n := range []int{4, 65} {
		m := NewMatrix(n)
		for j := 1; j <= n; j++ {
			if err := m.SetRow(j, NewSyndrome(n, Healthy)); err != nil {
				t.Fatal(err)
			}
		}
		for _, col := range []int{-1, 0, n + 1, 66} {
			if got := m.Opinion(1, col); got != Erased {
				t.Errorf("N=%d: Opinion(1, %d) = %v, want ε", n, col, got)
			}
			if f, h := m.Tally(col); f != 0 || h != 0 {
				t.Errorf("N=%d: Tally(%d) = (%d, %d), want (0, 0)", n, col, f, h)
			}
			if v, ok := m.Vote(col); ok {
				t.Errorf("N=%d: Vote(%d) = %v, want ⊥", n, col, v)
			}
			votes := m.Column(col)
			if len(votes) != n {
				t.Errorf("N=%d: Column(%d) has %d entries, want %d", n, col, len(votes), n)
			}
			for i, v := range votes {
				if v != Erased {
					t.Errorf("N=%d: Column(%d)[%d] = %v, want ε", n, col, i, v)
				}
			}
		}
	}
}
