package sim

import (
	"fmt"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
)

// renderOutput is a deep rendering of every reference a RoundOutput carries.
func renderOutput(out core.RoundOutput) string {
	m := "<nil>"
	if out.Matrix != nil {
		m = out.Matrix.String()
	}
	return fmt.Sprintf("round %d diag %d hv %v send % x syn %v active %v\n%s",
		out.Round, out.DiagnosedRound, out.ConsHV, out.Send, out.SendSyndrome, out.Active, m)
}

// checkMatrixViews requires a matrix's byte-level rows (a lazily built
// cache) to agree with its planes: a reused ring matrix must not serve the
// cache of the round it held four Steps earlier.
func checkMatrixViews(t *testing.T, m *core.Matrix) {
	t.Helper()
	for j := 1; j <= m.N(); j++ {
		bit, ok := m.BitRow(j)
		row := m.Row(j)
		if ok != (row != nil) || (ok && !row.Equal(bit.Unpack(m.N()))) {
			t.Fatalf("matrix row %d: bytes %v, planes %v (present %v)", j, row, bit.String(m.N()), ok)
		}
	}
}

// TestRoundOutputWindow pins the buffer contract of core.RoundOutput and
// sim.Collector on the lock-step path, at the prototype size and at the
// packed limit, with bursts that make node 2 faulty and isolated:
//
//   - every reference of a node's output — matrix, health vector, sent
//     syndrome and payload, activity vector — is intact for the next three
//     Steps;
//   - a reused ring matrix serves its own rows, not the byte-level cache
//     of the round it held four Steps earlier;
//   - the health vectors a Collector recorded survive the rest of the run
//     and a Reset of cluster and collector, and a reused collector records
//     the same vectors as a fresh one.
func TestRoundOutputWindow(t *testing.T) {
	for _, n := range []int{4, 64} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			cfg := ClusterConfig{
				N:        n,
				RoundLen: DefaultRoundLen * time.Duration(n) / 4,
				PR:       core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4},
			}
			const rounds = 24
			// run hooks col onto every node, keeps a private clone of every
			// health vector the hooks see, and returns the clones rendered
			// like render(col) renders the collector's HVs.
			run := func(cl *DiagCluster, col *Collector, window bool) string {
				t.Helper()
				ref := make([][]core.Syndrome, rounds)
				for id := 1; id <= n; id++ {
					col.HookDiag(id, cl.Runners[id])
					hook, id := cl.Runners[id].OnOutput, id
					cl.Runners[id].OnOutput = func(out core.RoundOutput) {
						hook(out)
						if out.ConsHV != nil {
							if ref[out.DiagnosedRound] == nil {
								ref[out.DiagnosedRound] = make([]core.Syndrome, n+1)
							}
							ref[out.DiagnosedRound][id] = out.ConsHV.Clone()
						}
					}
				}
				if window {
					type kept struct {
						out  core.RoundOutput
						want string
					}
					var last []kept
					hook := cl.Runners[1].OnOutput
					cl.Runners[1].OnOutput = func(out core.RoundOutput) {
						hook(out)
						if out.Matrix != nil {
							checkMatrixViews(t, out.Matrix)
						}
						for age, k := range last {
							if got := renderOutput(k.out); got != k.want {
								t.Fatalf("output of round %d changed %d Steps later:\n got %s\nwant %s",
									k.out.Round, len(last)-age, got, k.want)
							}
						}
						last = append(last, kept{out, renderOutput(out)})
						if len(last) > 3 {
							last = last[1:]
						}
					}
				}
				sched := cl.Eng.Schedule()
				var bursts []fault.Burst
				for r := 6; r < 12; r++ {
					bursts = append(bursts, fault.SlotBurst(sched, r, 2, 1))
				}
				cl.Eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
				if err := cl.Eng.RunRounds(rounds); err != nil {
					t.Fatal(err)
				}
				for len(ref) > 0 && ref[len(ref)-1] == nil {
					ref = ref[:len(ref)-1]
				}
				return fmt.Sprint(ref)
			}
			render := func(col *Collector) string { return fmt.Sprint(col.ConsHV) }

			fresh, err := NewReusableDiagnosticCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			freshCol := NewCollector()
			want := run(fresh, freshCol, false)
			if got := render(freshCol); got != want {
				t.Fatalf("collector HVs differ from the outputs' clones:\n got %s\nwant %s", got, want)
			}
			if len(freshCol.Isolations) == 0 {
				t.Fatal("no isolation: the bursts do not exercise the decision path")
			}
			wantIso := fmt.Sprint(freshCol.Isolations, freshCol.Reintegrations)

			cl, err := NewReusableDiagnosticCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col := NewCollector()
			if got := run(cl, col, true); got != want {
				t.Fatalf("outputs of the windowed run:\n got %s\nwant %s", got, want)
			}
			if got := render(col); got != want {
				t.Fatalf("collector after the run:\n got %s\nwant %s", got, want)
			}
			var held []core.Syndrome
			var heldWant []string
			for _, byObs := range col.ConsHV {
				for _, hv := range byObs {
					if hv != nil {
						held = append(held, hv)
						heldWant = append(heldWant, hv.String())
					}
				}
			}
			cl.Reset()
			col.Reset()
			for i, hv := range held {
				if hv.String() != heldWant[i] {
					t.Fatalf("recorded health vector %d changed across Reset: %v, want %s", i, hv, heldWant[i])
				}
			}
			run(cl, col, true)
			if got := render(col); got != want {
				t.Fatalf("reused collector:\n got %s\nwant %s", got, want)
			}
			if got := fmt.Sprint(col.Isolations, col.Reintegrations); got != wantIso {
				t.Fatalf("reused collector decisions %s, want %s", got, wantIso)
			}
		})
	}
}
