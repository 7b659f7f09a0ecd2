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

// TestEngineRoundAllocs pins one steady-state TDMA round at zero
// allocations, on the 4-node prototype and at the packed limit: the bus
// hands undisturbed frames to the controllers by reference, the protocols
// write their outputs into their rings, and the ground-truth block has
// stopped growing after the warm-up.
func TestEngineRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, cfg := range []ClusterConfig{
		{Ls: []int{2, 0, 3, 1}},
		{N: 64, RoundLen: DefaultRoundLen * 16},
	} {
		cl, err := NewReusableDiagnosticCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: fill every reusable buffer and get past the truth
		// block's early doublings.
		if err := cl.Eng.RunRounds(64); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := cl.Eng.RunRound(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("N=%d: RunRound allocates %.1f objects/round in steady state, want 0", cl.Config().N, avg)
		}
	}
}

// TestReusableClusterConstructorAllocs keeps building a reusable cluster —
// the set-up cost of every campaign worker and splitting trial — from
// regressing: the ceilings are the counts before the output ring existed.
func TestReusableClusterConstructorAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, tc := range []struct {
		cfg     ClusterConfig
		ceiling float64
	}{
		{ClusterConfig{N: 4}, 134},
		{ClusterConfig{N: 64, RoundLen: DefaultRoundLen * 16}, 1936},
	} {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := NewReusableDiagnosticCluster(tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.ceiling {
			t.Errorf("N=%d: NewReusableDiagnosticCluster allocates %.0f objects, ceiling %.0f", tc.cfg.N, avg, tc.ceiling)
		}
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
