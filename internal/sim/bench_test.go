package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkDiagRunnerRound measures the job layer of one round: every
// node's DiagRunner.Run — wire parse of the N interface variables, the
// packed protocol step and the activity update — on the interface state a
// warmed-up cluster left in its controllers, without the bus.
func BenchmarkDiagRunnerRound(b *testing.B) {
	for _, n := range []int{4, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			cl, err := NewReusableDiagnosticCluster(ClusterConfig{
				N: n, RoundLen: DefaultRoundLen * time.Duration(n) / 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Eng.RunRounds(8); err != nil {
				b.Fatal(err)
			}
			start := cl.Eng.Round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for id := 1; id <= n; id++ {
					if _, err := cl.Runners[id].Run(start+i, cl.Eng.Controller(tdmaID(id))); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n), "jobs/round")
		})
	}
}
