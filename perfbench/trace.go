package main

import (
	"time"

	"ttdiag/internal/splitting"
	"ttdiag/internal/tdma"
)

// ledger accumulates one goroutine's layer times (ns) and work counts
// during a traced pass. A ledger is written by a single goroutine and read
// only after the worker pool that wrote it has joined.
type ledger struct {
	// fault and collector are fine-grained calls: every spanStride-th call
	// is timed (faultTimed, collectorTimed) and every call is counted.
	fault, faultTimed, faultCalls, faultHits  int64
	collector, collectorTimed, collectorCalls int64
	// sim is inclusive: it covers the fault and collector calls made
	// inside the rounds it times.
	sim, simRounds, simBits int64
	audit, auditCalls       int64
	rng, rngStreams         int64
	// busy is the time spent inside task functions, tasks their count.
	busy, tasks int64
	// end is the time since the pass started at which this goroutine's
	// last fleet shard finished.
	end int64
	_   [64]byte // keeps ledgers of different goroutines off one cache line
}

func (l *ledger) add(o *ledger) {
	l.fault += o.fault
	l.faultTimed += o.faultTimed
	l.faultCalls += o.faultCalls
	l.faultHits += o.faultHits
	l.sim += o.sim
	l.simRounds += o.simRounds
	l.simBits += o.simBits
	l.collector += o.collector
	l.collectorTimed += o.collectorTimed
	l.collectorCalls += o.collectorCalls
	l.audit += o.audit
	l.auditCalls += o.auditCalls
	l.rng += o.rng
	l.rngStreams += o.rngStreams
	l.busy += o.busy
	l.tasks += o.tasks
}

// since returns the nanoseconds elapsed since t.
func since(t time.Time) int64 { return int64(time.Since(t)) }

// spanStride samples the fine-grained calls: taking two clock readings
// costs several times a fault-chain call, so only every spanStride-th call
// is timed and the layer's time is estimated from the sample. The stride is
// prime, so the sample cycles through every slot, lane and method position
// of the calls.
const spanStride = 7

// timedCall reports whether the call numbered n is in the sample.
func timedCall(n int64) bool { return n%spanStride == 0 }

// timerCost measures the span timer on this host: inside is the mean
// reading of an empty span (the timer cost a span's own reading
// includes), pair the full cost of taking one span, both in ns.
func timerCost() (inside, pair float64) {
	const n = 100000
	var sum int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ts := time.Now()
		sum += since(ts)
	}
	return float64(sum) / n, float64(since(t0)) / n
}

// estimate scales a sampled span sum to all calls, less the timer cost
// each sampled reading includes.
func estimate(ns, timed, calls int64, inside float64) int64 {
	if timed == 0 {
		return 0
	}
	per := (float64(ns) - float64(timed)*inside) / float64(timed)
	return int64(max(per, 0) * float64(calls))
}

// passTrace collects the spans of one traced pass. The replicas
// fill it from the benchmark's own wrappers around the layers' exported
// APIs; nothing inside the program is instrumented.
type passTrace struct {
	start   time.Time
	workers int
	// main is the calling goroutine's ledger; workers holds one ledger per
	// pool worker (sec8) or per shard (fleet).
	main    ledger
	workerL []*ledger
	// pool is the wall time spent inside worker-pool sections and poolCap
	// their capacity: the sum over sections of workers × wall.
	pool, poolCap int64
	// gateway is the fleet's serial gateway phase; sharded marks a fleet
	// pass, whose worker ledgers time shards.
	gateway int64
	sharded bool
	// split is the wall time inside splitting.Run, splitCPU the process
	// CPU time over the same intervals, and splitRes the summed counts.
	split, splitCPU int64
	splitRes        splitCounts
}

func newPassTrace(workers int) *passTrace {
	return &passTrace{start: time.Now(), workers: workers}
}

// newLedger returns a fresh worker ledger owned by the pass.
func (t *passTrace) newLedger() *ledger {
	l := &ledger{}
	t.workerL = append(t.workerL, l)
	return l
}

// pooled records one worker-pool section of the given wall time run by
// the given number of workers.
func (t *passTrace) pooled(workers int, wall int64) {
	t.pool += wall
	t.poolCap += int64(workers) * wall
}

// splitCounts sums splitting.Result counts.
type splitCounts struct {
	trials, hits, rounds, restores, clones int64
}

func (s *splitCounts) add(r *splitting.Result) {
	for _, lr := range r.Levels {
		s.trials += int64(lr.Trials)
		s.hits += int64(lr.Hits)
	}
	s.rounds += r.Rounds
	s.restores += r.Restores
	s.clones += int64(r.Clones)
}

// timedFault wraps one injected disturbance: it counts and times every
// call and counts the hits, the calls that changed the delivery or the
// collision verdict. It is as receiver-uniform as the disturbance it wraps.
type timedFault struct {
	d tdma.Disturbance
	l *ledger
}

func (f *timedFault) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	var out tdma.Delivery
	if timedCall(f.l.faultCalls) {
		t0 := time.Now()
		out = f.d.Deliver(tx, rcv, d)
		f.l.fault += since(t0)
		f.l.faultTimed++
	} else {
		out = f.d.Deliver(tx, rcv, d)
	}
	f.l.faultCalls++
	if out.Valid != d.Valid || len(out.Payload) != len(d.Payload) ||
		(len(d.Payload) > 0 && &out.Payload[0] != &d.Payload[0]) {
		f.l.faultHits++
	}
	return out
}

func (f *timedFault) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	var out bool
	if timedCall(f.l.faultCalls) {
		t0 := time.Now()
		out = f.d.SenderCollision(tx, collided)
		f.l.fault += since(t0)
		f.l.faultTimed++
	} else {
		out = f.d.SenderCollision(tx, collided)
	}
	f.l.faultCalls++
	if out != collided {
		f.l.faultHits++
	}
	return out
}

// layerSums is the sum over traced passes of every layer's self time,
// converted to wall-clock equivalents, plus the merged counts.
type layerSums struct {
	passes int64
	wall   int64 // Σ traced pass wall time
	// Wall-equivalent self times: time inside a worker-pool section is
	// scaled by wall/capacity, so the layers of one pass add up to its
	// wall time and the residual is what no span covers.
	fault, sim, collector, audit, rng, campaign, gateway, split int64
	// trace is the estimated cost of the sampled spans' clock readings.
	trace int64
	// shard is the inclusive wall-equivalent shard time (fleet).
	shard int64
	// Goroutine-time totals for per-call and per-node-round costs.
	faultG, simG, rngG int64
	counts             ledger
	splitRes           splitCounts
	splitCPU           int64
	capacity           int64 // Σ workers × traced pass wall time
	workers            int64
	// timerIn and timerPair are the span timer's costs (see timerCost).
	timerIn, timerPair float64
}

// add folds one traced pass of the given wall time into the sums.
func (s *layerSums) add(t *passTrace, wall int64) {
	var w ledger
	for _, l := range t.workerL {
		w.add(l)
	}
	scale := func(ns int64) int64 {
		if t.poolCap == 0 {
			return 0
		}
		return int64(float64(ns) * float64(t.pool) / float64(t.poolCap))
	}
	fault := estimate(w.fault, w.faultTimed, w.faultCalls, s.timerIn)
	collector := estimate(w.collector, w.collectorTimed, w.collectorCalls, s.timerIn)
	timer := int64(float64(w.faultTimed+w.collectorTimed) * s.timerPair)
	simSelf := w.sim - fault - collector - timer
	s.passes++
	s.wall += wall
	s.fault += scale(fault)
	s.sim += scale(simSelf)
	s.collector += scale(collector)
	s.trace += scale(timer)
	s.audit += scale(w.audit)
	s.rng += scale(w.rng) + t.main.rng
	s.campaign += t.pool - scale(w.sim+w.audit+w.rng)
	s.gateway += t.gateway
	s.split += t.split
	if t.sharded {
		s.shard += scale(w.sim)
	}
	s.faultG += fault
	s.simG += simSelf
	s.rngG += w.rng + t.main.rng
	w.rngStreams += t.main.rngStreams
	s.counts.add(&w)
	s.splitRes.trials += t.splitRes.trials
	s.splitRes.hits += t.splitRes.hits
	s.splitRes.rounds += t.splitRes.rounds
	s.splitRes.restores += t.splitRes.restores
	s.splitRes.clones += t.splitRes.clones
	s.splitCPU += t.splitCPU
	s.capacity += int64(t.workers) * wall
	s.workers = int64(t.workers)
}

// residual is the traced wall time no layer's self time covers.
func (s *layerSums) residual() int64 {
	return s.wall - (s.fault + s.sim + s.collector + s.audit + s.rng + s.campaign + s.gateway + s.split + s.trace)
}
