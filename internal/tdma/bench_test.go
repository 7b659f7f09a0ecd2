package tdma_test

import (
	"fmt"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/tdma"
)

// BenchmarkBusTransmitSlot measures one slot of the lock-step bus — frame
// staging, the disturbance chain per receiver, N controller updates and the
// outcome class — at the prototype size and at the packed limit, with an
// empty chain and with a one-burst chain (a fault.Train whose single burst
// lies outside the measured rounds, so only the chain's evaluation cost is
// added).
func BenchmarkBusTransmitSlot(b *testing.B) {
	for _, n := range []int{4, 64} {
		for _, chain := range []string{"empty", "burst"} {
			b.Run(fmt.Sprintf("n%d/%s", n, chain), func(b *testing.B) {
				sched := tdma.MustSchedule(n, time.Duration(n)*625*time.Microsecond)
				bus := tdma.NewBus(sched, nil)
				payload := core.NewSyndrome(n, core.Healthy).Encode()
				for id := 1; id <= n; id++ {
					c, err := tdma.NewController(tdma.NodeID(id), n)
					if err != nil {
						b.Fatal(err)
					}
					if err := bus.Attach(c); err != nil {
						b.Fatal(err)
					}
					c.WriteInterface(payload)
				}
				if chain == "burst" {
					bus.AddDisturbance(fault.NewTrain(fault.SlotBurst(sched, 1<<30, 2, 1)))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bus.TransmitSlot(i/n, i%n+1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
