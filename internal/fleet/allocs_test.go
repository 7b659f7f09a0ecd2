// Allocation-ceiling regression tests for the fleet hot path. The race
// detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package fleet

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
)

// TestGatewayRoundAllocs pins one steady-state gateway TDMA round at zero
// allocations: the protocols write their outputs into their rings, and
// frames, rows, collision ring and summary scratch are all reused.
func TestGatewayRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	const s = 16
	gw, err := NewGatewayNet(s, core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	summaries := make([]core.ShardSummary, s)
	for i := range summaries {
		summaries[i] = core.ShardSummary{Size: 64, Isolated: i % 3, Faulty: i % 5}
	}
	round := 0
	run := func() {
		if _, err := gw.RunRound(summaries, 0); err != nil {
			t.Fatal(err)
		}
		round++
	}
	// Warm up past the protocol warm-up and the output ring.
	for round < 8 {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("gateway round allocates %.1f times, want 0", avg)
	}
}
