package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// batchScenario parameterises one lane/run of the batch-vs-engine
// differential: which disturbances to attach and how long the repetition is.
type batchScenario struct {
	name string
	cfg  ClusterConfig
	// attach installs run's disturbances on add (the per-run bus or a batch
	// lane) and returns the repetition horizon in rounds.
	attach func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int
}

// batchScenarios covers the observable regimes of the batched cluster:
// pure detection (no isolation), isolation without reintegration (the
// monotone ignore path plus collision feedback), reintegration (the
// observe path), a design-time AllSendCurrRound schedule, and malicious
// senders driving the rng-backed disturbance caching.
func batchScenarios() []batchScenario {
	prototype := []int{2, 0, 3, 1}
	burstAttach := func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
		inject := 4 + run%6
		slots := []int{1, 2, 8}[run%3]
		start := 1 + run%4
		add(fault.NewTrain(fault.SlotBurst(sched, inject, start, slots)))
		return inject + 10 + run%3
	}
	return []batchScenario{
		{
			name:   "bursts_detect",
			cfg:    ClusterConfig{Ls: prototype},
			attach: burstAttach,
		},
		{
			name: "bursts_isolate",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
			},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				start := 5 + run%4
				target := 1 + run%4
				var bursts []fault.Burst
				for r := start; r < start+14; r += 2 {
					bursts = append(bursts, fault.SlotBurst(sched, r, target, 1))
				}
				add(fault.NewTrain(bursts...))
				return start + 18
			},
		},
		{
			name: "bursts_reintegrate",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4, ReintegrationThreshold: 3},
			},
			// Faulty rounds until the penalty crosses the threshold, then a
			// quiet tail long enough for the observation window to
			// reintegrate the target.
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				start := 5 + run%3
				target := 1 + run%4
				var bursts []fault.Burst
				for r := start; r < start+8; r += 2 {
					bursts = append(bursts, fault.SlotBurst(sched, r, target, 1))
				}
				add(fault.NewTrain(bursts...))
				return start + 20 + run%3
			},
		},
		{
			name:   "bursts_allcurr",
			cfg:    ClusterConfig{Ls: []int{0, 1, 2, 3}, AllSendCurrRound: true},
			attach: burstAttach,
		},
		{
			name: "malicious",
			cfg:  ClusterConfig{Ls: prototype},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				mal := tdma.NodeID(1 + run%4)
				add(fault.NewMaliciousSyndrome(mal, rng.NewStream(int64(4000+run))))
				return 20 + run%4
			},
		},
		{
			// One gang mixing both delivery paths: train-only lanes take
			// the slot-mask words, malicious-only lanes and the one
			// [Train, MaliciousSyndrome] chain run their chains per slot,
			// and the undisturbed lane is a mask lane with an empty mask.
			name: "mixed",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
			},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				train := func() tdma.Disturbance {
					start := 5 + run%4
					var bursts []fault.Burst
					for r := start; r < start+10; r += 2 {
						bursts = append(bursts, fault.SlotBurst(sched, r, 1+run%4, 1+run%3))
					}
					return fault.NewTrain(bursts...)
				}
				mal := func() tdma.Disturbance {
					return fault.NewMaliciousSyndrome(tdma.NodeID(1+(run+1)%4), rng.NewStream(int64(7000+run)))
				}
				switch {
				case run == 2:
					add(train())
					add(mal())
				case run == 3:
				case run%2 == 0:
					add(train())
				default:
					add(mal())
				}
				return 18 + run%5
			},
		},
		{
			// Heterogeneous slot lengths with bursts of arbitrary phase,
			// so the slot masks come from the custom slot grid.
			name: "bursts_slotlens",
			cfg: ClusterConfig{
				Ls:       prototype,
				SlotLens: []time.Duration{300 * time.Microsecond, 1100 * time.Microsecond, 200 * time.Microsecond, 900 * time.Microsecond},
			},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				inject := 4 + run%6
				at := sched.RoundStart(inject) + time.Duration(run*173%2500)*time.Microsecond
				length := time.Duration(50+run*311%3000) * time.Microsecond
				add(fault.NewTrain(fault.Burst{Start: at, Length: length}))
				return inject + 10 + run%3
			},
		},
	}
}

// runBatchReference executes one repetition on the per-run lock-step engine
// and returns its observables: collector, truth rows, final penalties and
// the telemetry snapshot.
func runBatchReference(t *testing.T, sc batchScenario, run int) (*Collector, [][]tdma.OutcomeClass, [][]int64, []byte) {
	t.Helper()
	cfg := sc.cfg
	cl, err := NewReusableDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	sm := core.NewStepMetrics(reg)
	col := NewCollector()
	n := cl.Config().N
	for id := 1; id <= n; id++ {
		col.HookDiag(id, cl.Runners[id])
		cl.Runners[id].Protocol().SetMetrics(sm)
	}
	eng := cl.Eng
	horizon := sc.attach(run, eng.Schedule(), func(d tdma.Disturbance) { eng.Bus().AddDisturbance(d) })
	if err := eng.RunRounds(horizon); err != nil {
		t.Fatal(err)
	}
	truth := make([][]tdma.OutcomeClass, horizon)
	for r := 0; r < horizon; r++ {
		truth[r] = append([]tdma.OutcomeClass(nil), eng.Truth(r)...)
	}
	pen := make([][]int64, n+1)
	for id := 1; id <= n; id++ {
		pen[id] = make([]int64, n+1)
		pr := cl.Runners[id].Protocol().PenaltyReward()
		for j := 1; j <= n; j++ {
			pen[id][j] = pr.Penalty(j)
		}
	}
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return col, truth, pen, snap
}

// TestBatchClusterEquivalence pins the lane-packed batched cluster to the
// lock-step per-run engine: for every scenario and gang width (full,
// ragged, single-lane), lane r of the gang must leave behind exactly the
// observables of per-run repetition r — collector records, ground-truth
// rows, final penalty counters and telemetry snapshots.
func TestBatchClusterEquivalence(t *testing.T) {
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			bc, err := NewBatchDiagCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := bc.Config().N
			for _, width := range []int{bc.MaxLanes(), bc.MaxLanes()/2 + 1, 1} {
				width := width
				t.Run(fmt.Sprintf("g%d", width), func(t *testing.T) {
					if err := bc.ResetBatch(width); err != nil {
						t.Fatal(err)
					}
					regs := make([]*metrics.Registry, width)
					for lane := 0; lane < width; lane++ {
						regs[lane] = metrics.New()
						sm := core.NewStepMetrics(regs[lane])
						for id := 1; id <= n; id++ {
							bc.Proto(id).SetLaneMetrics(lane, sm)
						}
						lane := lane
						h := sc.attach(lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
						bc.SetLaneHorizon(lane, h)
					}
					if err := bc.Run(); err != nil {
						t.Fatal(err)
					}
					for lane := 0; lane < width; lane++ {
						refCol, refTruth, refPen, refSnap := runBatchReference(t, sc, lane)
						lt := bc.LaneTruth(lane)
						if lt.Round() != len(refTruth) {
							t.Fatalf("lane %d: %d recorded rounds, engine executed %d", lane, lt.Round(), len(refTruth))
						}
						for r := range refTruth {
							if got := lt.Truth(r); !reflect.DeepEqual(got, refTruth[r]) {
								t.Fatalf("lane %d round %d truth:\n got %v\nwant %v", lane, r, got, refTruth[r])
							}
						}
						if got := bc.LaneCollector(lane); !reflect.DeepEqual(got, refCol) {
							t.Fatalf("lane %d collector diverges:\n got %+v\nwant %+v", lane, got, refCol)
						}
						for id := 1; id <= n; id++ {
							for j := 1; j <= n; j++ {
								if got, want := bc.LaneFinalPenalty(lane, id, j), refPen[id][j]; got != want {
									t.Fatalf("lane %d observer %d penalty(%d) = %d, want %d", lane, id, j, got, want)
								}
							}
						}
						snap, err := json.Marshal(regs[lane].Snapshot())
						if err != nil {
							t.Fatal(err)
						}
						if string(snap) != string(refSnap) {
							t.Fatalf("lane %d metrics snapshot diverges:\n got %s\nwant %s", lane, snap, refSnap)
						}
					}
				})
			}
		})
	}
}

// TestBatchClusterReset pins gang reuse: a cluster reset between gangs is
// observationally identical to a freshly built one, including shrinking to
// a ragged width and growing back.
func TestBatchClusterReset(t *testing.T) {
	sc := batchScenarios()[0]
	reused, err := NewBatchDiagCluster(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gang, width := range []int{reused.MaxLanes(), 3, reused.MaxLanes(), 1} {
		fresh, err := NewBatchDiagCluster(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bc := range []*BatchDiagCluster{reused, fresh} {
			if err := bc.ResetBatch(width); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < width; lane++ {
				lane := lane
				h := sc.attach(gang*7+lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
				bc.SetLaneHorizon(lane, h)
			}
			if err := bc.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for lane := 0; lane < width; lane++ {
			if !reflect.DeepEqual(reused.LaneCollector(lane), fresh.LaneCollector(lane)) {
				t.Fatalf("gang %d lane %d: reused cluster collector diverges from fresh", gang, lane)
			}
			if !reflect.DeepEqual(truthRows(reused.LaneTruth(lane)), truthRows(fresh.LaneTruth(lane))) {
				t.Fatalf("gang %d lane %d: reused cluster truth diverges from fresh", gang, lane)
			}
		}
	}
}

// truthRows copies every recorded ground-truth row of a source.
func truthRows(src TruthSource) [][]tdma.OutcomeClass {
	rows := make([][]tdma.OutcomeClass, src.Round())
	for r := range rows {
		rows[r] = append([]tdma.OutcomeClass(nil), src.Truth(r)...)
	}
	return rows
}

// TestBatchClusterRejects pins the constructor's validation surface.
func TestBatchClusterRejects(t *testing.T) {
	if _, err := NewBatchDiagCluster(ClusterConfig{N: 65}); err == nil {
		t.Fatal("N=65 accepted")
	}
	bc, err := NewBatchDiagCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if bc.MaxLanes() != 16 {
		t.Fatalf("MaxLanes = %d, want 16 for N=4", bc.MaxLanes())
	}
	if err := bc.ResetBatch(0); err == nil {
		t.Fatal("0-lane gang accepted")
	}
	if err := bc.ResetBatch(17); err == nil {
		t.Fatal("17-lane gang accepted")
	}
}

// TestGangAuditMatchesAuditTheorem1 is the differential test of the packed
// Theorem-1 audit: for every scenario, random per-lane windows and obedient
// sets, AuditGang must fail exactly the lanes on which AuditTheorem1 over
// the lane's views errs, with the same message. The windows reach before
// the first round, into the horizon tail nobody diagnoses and past the
// horizon; a second pass tampers with the records (truth classes, health
// vector bits, recorded lanes) so every kind of violation is exercised.
func TestGangAuditMatchesAuditTheorem1(t *testing.T) {
	kinds := map[string]int{}
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			bc, err := NewBatchDiagCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, width := bc.Config().N, bc.MaxLanes()
			if err := bc.ResetBatch(width); err != nil {
				t.Fatal(err)
			}
			maxH := 0
			for lane := 0; lane < width; lane++ {
				lane := lane
				h := sc.attach(lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
				bc.SetLaneHorizon(lane, h)
				maxH = max(maxH, h)
			}
			if err := bc.Run(); err != nil {
				t.Fatal(err)
			}
			st := rng.NewStream(int64(len(sc.name)))
			from, to := make([]int, width), make([]int, width)
			errs := make([]error, width)
			check := func(pass string) {
				for trial := 0; trial < 300; trial++ {
					var obedient []int
					for id := 1; id <= n; id++ {
						if st.Intn(3) != 0 {
							obedient = append(obedient, id)
						}
					}
					if len(obedient) == 0 {
						obedient = append(obedient, 1+st.Intn(n))
					}
					if st.Intn(4) == 0 {
						obedient[0], obedient[len(obedient)-1] = obedient[len(obedient)-1], obedient[0]
					}
					for lane := 0; lane < width; lane++ {
						from[lane] = st.Intn(maxH+4) - 2
						to[lane] = from[lane] + st.Intn(maxH+4) - 1
					}
					failed := bc.AuditGang(obedient, from, to, errs)
					for lane := 0; lane < width; lane++ {
						want := AuditTheorem1(bc.LaneTruth(lane), bc.LaneCollector(lane), obedient, from[lane], to[lane])
						if got := failed>>uint(lane)&1 != 0; got != (want != nil) {
							t.Fatalf("%s trial %d lane %d window [%d,%d) obedient %v: gang audit failed=%v, AuditTheorem1: %v",
								pass, trial, lane, from[lane], to[lane], obedient, got, want)
						}
						if fmt.Sprint(errs[lane]) != fmt.Sprint(want) {
							t.Fatalf("%s trial %d lane %d: gang audit error %v, AuditTheorem1 %v", pass, trial, lane, errs[lane], want)
						}
						if want != nil {
							msg := want.Error()
							kinds[msg[:strings.IndexAny(msg[5:], ":0123456789")+5]]++
						}
					}
				}
			}
			check("recorded")
			// Tamper with the records the views and the packed audit share:
			// flip truth classes, health-vector opinions and recorded lanes.
			w := n + 1
			for i := 0; i < 12; i++ {
				lane, k, slot := st.Intn(width), st.Intn(maxH), st.Intn(n)
				bit := uint64(1) << uint(lane*n+slot)
				switch i % 3 {
				case 0:
					bc.truthB[k] ^= bit
				case 1:
					bc.truthM[k] |= bit
					bc.truthB[k] &^= bit
				}
				if ri := k*w + 1 + st.Intn(n); ri < len(bc.recs) {
					if i%4 == 3 {
						bc.recs[ri].lanes &^= bc.laneAll << uint(lane*n)
					} else {
						bc.recs[ri].op ^= bit
					}
				}
			}
			bc.colViews, bc.truthViews = 0, 0
			check("tampered")
		})
	}
	for _, kind := range []string{
		"sim: no ground truth for round ",
		"sim: no health vectors recorded for round ",
		"sim: observer ",
		"sim: consistency violated for round ",
		"sim: completeness violated",
		"sim: correctness violated",
	} {
		if kinds[kind] == 0 {
			t.Errorf("no window produced %q (kinds seen: %v)", kind, kinds)
		}
	}
}
