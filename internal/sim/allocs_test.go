// Allocation-ceiling regression test for the lock-step simulation hot path.
// The race detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/invariant"
	"ttdiag/internal/tdma"
)

// TestEngineRoundAllocs pins the steady-state allocation budget of one TDMA
// round on the 4-node prototype: two allocations per node Step (the retained
// per-round block and the matrix row headers) plus the amortized ground-truth
// growth — the bus, the controllers and the round-input construction must not
// allocate at all.
func TestEngineRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cl, err := NewReusableDiagnosticCluster(ClusterConfig{Ls: []int{2, 0, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: fill every reusable buffer and get past the truth block's
	// early doublings.
	if err := cl.Eng.RunRounds(64); err != nil {
		t.Fatal(err)
	}
	const ceiling = 10
	avg := testing.AllocsPerRun(100, func() {
		if err := cl.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("RunRound allocates %.1f objects/round in steady state, ceiling %d", avg, ceiling)
	}
}

// TestBatchGangAllocs pins the batched gang loop at zero allocations in
// steady state: ResetBatch, attaching pre-built disturbances, Run and the
// packed Theorem-1 audit reuse every record, plane and collector buffer of
// a warmed cluster. The gang mixes burst lanes (some isolating their
// target), a two-round blackout lane and an undisturbed lane.
func TestBatchGangAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	bc, err := NewBatchDiagCluster(ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	width := bc.MaxLanes()
	sched := bc.Schedule()
	dist := make([]tdma.Disturbance, width)
	from, to := make([]int, width), make([]int, width)
	errs := make([]error, width)
	for lane := 1; lane < width; lane++ {
		inject := 5 + lane%6
		switch {
		case lane == 1:
			dist[lane] = fault.NewTrain(fault.Blackout(sched, inject, 2))
		case lane%3 == 0:
			var bursts []fault.Burst
			for r := inject; r < inject+8; r += 2 {
				bursts = append(bursts, fault.SlotBurst(sched, r, 1+lane%4, 1))
			}
			dist[lane] = fault.NewTrain(bursts...)
		default:
			dist[lane] = fault.NewTrain(fault.SlotBurst(sched, inject, 1+lane%4, []int{1, 2, 8}[lane%3]))
		}
		from[lane], to[lane] = 4, inject+6
	}
	from[0], to[0] = 4, 20
	gang := func() {
		if err := bc.ResetBatch(width); err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < width; lane++ {
			if dist[lane] != nil {
				bc.AddLaneDisturbance(lane, dist[lane])
			}
			bc.SetLaneHorizon(lane, to[lane]+4)
		}
		if err := bc.Run(); err != nil {
			t.Fatal(err)
		}
		if failed := bc.AuditGang([]int{1, 2, 3, 4}, from, to, errs); failed != 0 {
			t.Fatalf("gang audit failed lanes %b", failed)
		}
	}
	gang()
	if got := len(bc.LaneCollector(1).Isolations) + len(bc.LaneCollector(3).Isolations); got == 0 {
		t.Fatal("no lane isolated its target: the decision appends are not exercised")
	}
	if avg := testing.AllocsPerRun(50, gang); avg != 0 {
		t.Fatalf("batched gang allocates %.1f objects in steady state, want 0", avg)
	}
}
