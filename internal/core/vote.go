package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// tallyVerdict is the single decision point of Eqn. 1, shared by HMaj,
// Matrix.Vote and the scalar reference the packed kernel is verified against:
// given the number of Faulty and Healthy votes among the non-ε opinions it
// returns ⊥ (ok == false) when there were none, Faulty on a strict Faulty
// majority, and Healthy otherwise (ties included — Eqn. 1's "else 1" branch,
// which guarantees a correct sender is never convicted by minority malicious
// votes).
func tallyVerdict(faulty, healthy int) (Opinion, bool) {
	if faulty+healthy == 0 {
		return Erased, false
	}
	if faulty > healthy {
		return Faulty, true
	}
	return Healthy, true
}

// HMaj is the hybrid-majority voting function of Eqn. 1. It receives the
// opinions of the other nodes about one diagnosed node (the diagnosed node's
// self-opinion must already be excluded by the caller) and returns:
//
//   - (_, false) — ⊥: no correct local syndrome was available, so no
//     decision can be reached (only possible during a communication
//     blackout, Lemma 3);
//   - (Faulty, true) — strictly more Faulty than Healthy votes among the
//     non-ε opinions;
//   - (Healthy, true) — otherwise (including ties, Eqn. 1's "else 1"
//     branch).
func HMaj(votes []Opinion) (Opinion, bool) {
	var faulty, healthy int
	for _, v := range votes {
		switch v {
		case Faulty:
			faulty++
		case Healthy:
			healthy++
		}
	}
	return tallyVerdict(faulty, healthy)
}

// Matrix is a diagnostic matrix for one diagnosed round: row j is the
// aligned local syndrome received from node j (nil for an ε row — node j's
// syndrome was not received), and column i is the set of opinions about
// node i.
//
// The matrix has two storage representations behind one API:
//
//   - Packed (N <= MaxPackedN, the default): each row is two uint64 planes
//     (opinion bits + presence/ε bits), SetBitRow installs a row with two
//     word stores, and VoteAll runs the word-parallel bit-sliced voting
//     kernel over all columns at once. Scalar accessors (Row, String)
//     materialise a byte-level view lazily on first use.
//   - Scalar (N > MaxPackedN, and the reference implementation the packed
//     kernel is verified against): a single flat backing array into which
//     SetRow copies each syndrome.
//
// Either way the matrix owns its storage — SetRow/SetBitRow copy the given
// row. A RoundOutput's matrix is a slot of the protocol's output ring,
// rewritten four Steps later; Clone keeps it past that. In the scalar
// layout, row 0 of the backing array is never exposed (rows are 1-based) and
// stores the per-row presence flags: cells[j] == Healthy iff row j is set.
type Matrix struct {
	n int
	// cells is the scalar storage ((n+1)*(n+1), row-major; row j at
	// [j*(n+1), (j+1)*(n+1))). On a packed matrix it doubles as the lazily
	// materialised byte-level cache and is invalidated by every row write.
	cells Syndrome
	// op/know are the packed row planes (1-based; nil on scalar matrices —
	// op != nil is the representation discriminator), rowSet the presence
	// mask (bit j-1 set iff row j is non-ε). Rows outside rowSet hold zero
	// planes, so the vote kernel can sweep every row without consulting
	// rowSet.
	op     []uint64
	know   []uint64
	rowSet uint64
}

// NewMatrix returns an empty diagnostic matrix for n nodes (all rows ε),
// packed when n fits the bit-plane representation and scalar beyond it.
func NewMatrix(n int) *Matrix {
	if n <= MaxPackedN {
		m, _ := NewPackedMatrix(n)
		return m
	}
	return newScalarMatrix(n)
}

// NewPackedMatrix returns an empty plane-backed diagnostic matrix. It fails
// when n exceeds MaxPackedN — one machine word must hold one opinion per
// node; wider systems use the scalar representation, which NewMatrix selects
// automatically.
func NewPackedMatrix(n int) (*Matrix, error) {
	if n > MaxPackedN {
		return nil, fmt.Errorf("core: packed matrix supports N <= %d, got %d (NewMatrix falls back to the scalar representation)", MaxPackedN, n)
	}
	planes := make([]uint64, 2*(n+1))
	m := &Matrix{n: n}
	initPackedMatrix(m, planes)
	return m, nil
}

// initPackedMatrix wires a zeroed caller-provided plane block of length
// 2*(n+1) into m (rows 1-based; the two index-0 words are never exposed).
func initPackedMatrix(m *Matrix, planes []uint64) {
	w := m.n + 1
	m.op = planes[0:w:w]
	m.know = planes[w : 2*w : 2*w]
}

// newScalarMatrix returns an empty matrix in the byte-per-entry reference
// representation, with no bound on n.
func newScalarMatrix(n int) *Matrix {
	return newMatrixIn(n, make(Syndrome, (n+1)*(n+1)))
}

// newMatrixIn wraps a zeroed caller-provided backing array of length
// (n+1)*(n+1) as an empty scalar matrix: the zero Opinion is Faulty, which
// reads as "row absent" in the presence row, so no initialisation pass is
// needed.
func newMatrixIn(n int, cells Syndrome) *Matrix {
	return &Matrix{n: n, cells: cells}
}

// Clone returns a deep copy of the matrix in the same representation,
// sharing no storage with m: the way to keep a RoundOutput's matrix past
// the protocol's output-ring window.
func (m *Matrix) Clone() *Matrix {
	cp := &Matrix{n: m.n, rowSet: m.rowSet, cells: append(Syndrome(nil), m.cells...)}
	if m.op != nil {
		initPackedMatrix(cp, append(append(make([]uint64, 0, 2*(m.n+1)), m.op...), m.know...))
	}
	return cp
}

// N returns the system size.
func (m *Matrix) N() int { return m.n }

// Packed reports whether the matrix uses the bit-plane representation.
func (m *Matrix) Packed() bool { return m.op != nil }

// SetRow installs the local syndrome received from node j; a nil syndrome
// marks the row as ε. The syndrome is copied, so the caller may reuse its
// buffer afterwards. On a packed matrix, entries outside {Faulty, Healthy,
// Erased} are normalised to ε (voting-equivalent: Eqn. 1 excludes them from
// the tally either way).
//
//ttdiag:noretain params
func (m *Matrix) SetRow(j int, s Syndrome) error {
	if j < 1 || j > m.n {
		return fmt.Errorf("core: matrix row %d out of range 1..%d", j, m.n)
	}
	if m.op != nil {
		if s == nil {
			m.op[j], m.know[j] = 0, 0
			m.rowSet &^= 1 << uint(j-1)
			m.cells = nil
			return nil
		}
		if s.N() != m.n {
			return fmt.Errorf("core: matrix row %d has %d entries, want %d", j, s.N(), m.n)
		}
		return m.SetBitRow(j, packSyndrome(s))
	}
	if s == nil {
		m.cells[j] = Faulty
		return nil
	}
	if s.N() != m.n {
		return fmt.Errorf("core: matrix row %d has %d entries, want %d", j, s.N(), m.n)
	}
	row := m.rowSlice(j)
	copy(row, s)
	row[0] = Erased
	m.cells[j] = Healthy
	return nil
}

// SetBitRow installs a packed local syndrome as row j — the hot-path form of
// SetRow: two word stores instead of an (N+1)-entry copy. It fails on scalar
// matrices (N > MaxPackedN).
func (m *Matrix) SetBitRow(j int, row BitSyndrome) error {
	if m.op == nil {
		return fmt.Errorf("core: SetBitRow on a scalar matrix (N = %d > %d)", m.n, MaxPackedN)
	}
	if j < 1 || j > m.n {
		return fmt.Errorf("core: matrix row %d out of range 1..%d", j, m.n)
	}
	row = row.normalized(PlaneMask(m.n))
	m.op[j] = row.Op
	m.know[j] = row.Known
	m.rowSet |= 1 << uint(j-1)
	m.cells = nil
	return nil
}

// rowSlice returns the full-capacity-clamped scalar storage of row j.
func (m *Matrix) rowSlice(j int) Syndrome {
	w := m.n + 1
	return m.cells[j*w : (j+1)*w : (j+1)*w]
}

// materialise builds the byte-level cache of a packed matrix so the scalar
// accessors can serve views of it. Row views returned before the last row
// write stay valid (the cache is replaced, not reused), matching the
// retain-safety of the scalar representation.
func (m *Matrix) materialise() {
	if m.op == nil || m.cells != nil {
		return
	}
	w := m.n + 1
	cells := make(Syndrome, w*w)
	for j := 1; j <= m.n; j++ {
		if m.rowSet&(1<<uint(j-1)) == 0 {
			continue
		}
		cells[j] = Healthy
		row := cells[j*w : (j+1)*w]
		row[0] = Erased
		b := BitSyndrome{Op: m.op[j], Known: m.know[j]}
		for i := 1; i <= m.n; i++ {
			row[i] = b.Get(i)
		}
	}
	m.cells = cells
}

// Row returns the syndrome of row j (nil for ε). The returned slice aliases
// matrix-owned storage and must not be mutated.
func (m *Matrix) Row(j int) Syndrome {
	if j < 1 || j > m.n {
		return nil
	}
	if m.op != nil {
		if m.rowSet&(1<<uint(j-1)) == 0 {
			return nil
		}
		m.materialise()
	} else if m.cells[j] != Healthy {
		return nil
	}
	return m.rowSlice(j)
}

// BitRow returns row j as packed planes; ok is false for ε rows. On scalar
// matrices within the packed bound the row is packed on the fly; beyond
// MaxPackedN ok is always false.
func (m *Matrix) BitRow(j int) (BitSyndrome, bool) {
	if j < 1 || j > m.n || m.n > MaxPackedN {
		return BitSyndrome{}, false
	}
	if m.op != nil {
		if m.rowSet&(1<<uint(j-1)) == 0 {
			return BitSyndrome{}, false
		}
		return BitSyndrome{Op: m.op[j], Known: m.know[j]}, true
	}
	row := m.Row(j)
	if row == nil {
		return BitSyndrome{}, false
	}
	return packSyndrome(row), true
}

// Opinion returns accuser's opinion about accused, Erased when the accuser's
// row is ε or either index lies outside 1..N.
func (m *Matrix) Opinion(accuser, accused int) Opinion {
	if m.op != nil {
		if accuser < 1 || accuser > m.n || m.rowSet&(1<<uint(accuser-1)) == 0 {
			return Erased
		}
		return BitSyndrome{Op: m.op[accuser], Known: m.know[accuser]}.Get(accused)
	}
	row := m.Row(accuser)
	if row == nil || accused < 1 || accused > m.n {
		return Erased
	}
	return row[accused]
}

// Column collects the opinions about node j from every row except row j
// itself: "the opinion of a node about itself is considered unreliable and
// discarded" (Sec. 5).
func (m *Matrix) Column(j int) []Opinion {
	votes := make([]Opinion, 0, m.n-1)
	for i := 1; i <= m.n; i++ {
		if i == j {
			continue
		}
		votes = append(votes, m.Opinion(i, j))
	}
	return votes
}

// Vote runs H-maj over column j. It is equivalent to HMaj(m.Column(j)) but
// walks the column in place instead of materialising the vote slice. For all
// columns at once, VoteAll is the word-parallel form.
func (m *Matrix) Vote(j int) (Opinion, bool) {
	return tallyVerdict(m.Tally(j))
}

// Tally counts the Faulty and Healthy opinions about column j — every non-ε
// entry of the column except node j's opinion about itself (self-opinions
// are discarded per Sec. 5). Vote is exactly tallyVerdict over this tally
// (Eqn. 1: ⊥ when both counts are zero, Faulty on a strict majority,
// Healthy otherwise including ties), so telemetry that classifies vote
// outcomes can use the same counts the verdict was derived from.
func (m *Matrix) Tally(j int) (faulty, healthy int) {
	if m.op != nil {
		bit := uint64(1) << uint(j-1)
		for rows := m.rowSet &^ bit; rows != 0; rows &= rows - 1 {
			i := bits.TrailingZeros64(rows) + 1
			if m.know[i]&bit == 0 {
				continue
			}
			if m.op[i]&bit != 0 {
				healthy++
			} else {
				faulty++
			}
		}
		return faulty, healthy
	}
	for i := 1; i <= m.n; i++ {
		if i == j {
			continue
		}
		switch m.Opinion(i, j) {
		case Faulty:
			faulty++
		case Healthy:
			healthy++
		}
	}
	return faulty, healthy
}

// DisagreementCount counts the definite (non-ε) off-self-column opinions
// that differ from the agreed health vector — the per-round "syndrome
// disagreement" telemetry of the diagnostic matrix. On a packed matrix this
// is pure mask arithmetic and allocates nothing.
func (m *Matrix) DisagreementCount(consHV Syndrome) int {
	total := 0
	if m.op != nil {
		all := PlaneMask(m.n)
		cons := packSyndrome(consHV)
		for rows := m.rowSet; rows != 0; rows &= rows - 1 {
			i := bits.TrailingZeros64(rows) + 1
			conflict := m.know[i] & cons.Known & (m.op[i] ^ cons.Op) & all &^ (uint64(1) << uint(i-1))
			total += bits.OnesCount64(conflict)
		}
		return total
	}
	for i := 1; i <= m.n; i++ {
		row := m.Row(i)
		if row == nil {
			continue
		}
		for j := 1; j <= m.n; j++ {
			if j == i || j >= len(consHV) {
				continue
			}
			v := row[j]
			if v != Faulty && v != Healthy {
				continue
			}
			c := consHV[j]
			if (c == Faulty || c == Healthy) && v != c {
				total++
			}
		}
	}
	return total
}

// VoteAll runs H-maj over every column at once and returns the result as a
// packed health vector: Known bit j-1 clear means column j voted ⊥, Op bit
// j-1 carries the Healthy/Faulty verdict otherwise. On a packed matrix this
// is the bit-sliced kernel (O(N·log N) word operations); on a scalar matrix
// within the packed bound it falls back to the per-column reference loop, and
// beyond MaxPackedN it fails (a 64-bit result cannot cover the columns).
func (m *Matrix) VoteAll() (BitSyndrome, error) {
	if m.op != nil {
		op, known := voteAllLanes(m.op, m.know, m.n, 1)
		return BitSyndrome{Op: op, Known: known}, nil
	}
	if m.n > MaxPackedN {
		return BitSyndrome{}, fmt.Errorf("core: VoteAll result is one machine word, N = %d > %d; vote per column instead", m.n, MaxPackedN)
	}
	return m.voteAllScalar(), nil
}

// countPlanes is the number of bit-sliced counter planes: per-column vote
// counts are at most N-1 <= 63, which fits in six bits.
const countPlanes = 6

// addPlane ripple-carry-adds the 1-bit-per-column mask into the bit-sliced
// counters: cnt[k] holds bit k of every column's count.
func addPlane(cnt *[countPlanes]uint64, mask uint64) {
	for k := 0; mask != 0 && k < countPlanes; k++ {
		carried := cnt[k] & mask
		cnt[k] ^= mask
		mask = carried
	}
}

// voteAllLanes is the word-parallel voting kernel, over every column of G
// lane-packed matrices at once (G = 1 for a single matrix): every row
// contributes its healthy and faulty opinion masks (self-opinion column
// removed per Sec. 5, replicated into every lane by laneRep) to two
// bit-sliced per-column counters, and the final Faulty verdicts fall out of
// one bit-sliced comparison — the borrow of the 6-bit subtraction
// healthy − faulty, computed with the full-subtractor recurrence
// borrow' = (¬h ∧ (f ∨ borrow)) ∨ (f ∧ borrow). Columns with no contribution
// at all are ⊥, and ties land on Healthy because a tie produces no borrow —
// exactly Eqn. 1. op/know are 1-based planes restricted to the live lanes
// (absent rows carry zero know segments); per-column counts stay ≤ N-1 ≤ 63,
// so the six counter planes cover every lane. Lane-exact equivalence with
// the per-column reference is pinned by FuzzVoteAll and FuzzVoteAllBatch.
func voteAllLanes(op, know []uint64, n int, laneRep uint64) (consOp, consKnown uint64) {
	var healthy, faulty [countPlanes]uint64
	var any uint64
	for i := 1; i <= n; i++ {
		valid := know[i] &^ (laneRep << uint(i-1))
		if valid == 0 {
			continue
		}
		any |= valid
		addPlane(&healthy, op[i]&valid)
		addPlane(&faulty, valid&^op[i])
	}
	var borrow uint64
	for k := 0; k < countPlanes; k++ {
		borrow = (^healthy[k] & (faulty[k] | borrow)) | (faulty[k] & borrow)
	}
	return any &^ borrow, any
}

// voteAllScalar is the reference implementation of VoteAll: the per-column
// loop the packed kernel is differentially tested against.
func (m *Matrix) voteAllScalar() BitSyndrome {
	var out BitSyndrome
	for j := 1; j <= m.n; j++ {
		if v, ok := m.Vote(j); ok {
			out.Set(j, v)
		}
	}
	return out
}

// String renders the matrix in the layout of Table 1, including the voted
// consistent health vector.
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteString("accuser\\accused |")
	for j := 1; j <= m.n; j++ {
		fmt.Fprintf(&b, " %d", j)
	}
	b.WriteString("\n")
	for i := 1; i <= m.n; i++ {
		fmt.Fprintf(&b, "node %-10d |", i)
		for j := 1; j <= m.n; j++ {
			if i == j {
				b.WriteString(" -")
				continue
			}
			fmt.Fprintf(&b, " %s", m.Opinion(i, j))
		}
		b.WriteString("\n")
	}
	b.WriteString("voted cons_hv   |")
	for j := 1; j <= m.n; j++ {
		if v, ok := m.Vote(j); ok {
			fmt.Fprintf(&b, " %s", v)
		} else {
			b.WriteString(" ?")
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Tolerates reports whether an N-node system satisfies the fault hypothesis
// of Lemma 2 for a asymmetric, s symmetric-malicious and b benign faulty
// senders over one protocol execution: N > 2a + 2s + b + 1 and a <= 1. The
// benign-only blackout regime (Lemma 3) is handled separately and reported
// by ToleratesBenignOnly.
func Tolerates(n, a, s, b int) bool {
	if a < 0 || s < 0 || b < 0 {
		return false
	}
	return a <= 1 && n > 2*a+2*s+b+1
}

// ToleratesBenignOnly reports whether the benign-only regime of Lemma 3
// applies: every fault is benign and correct local collision detection is
// available for self-diagnosis. It holds for any b up to N.
func ToleratesBenignOnly(n, b int) bool {
	return b >= 0 && b <= n
}
