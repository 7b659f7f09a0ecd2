package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/experiments"
	"ttdiag/internal/fault"
	"ttdiag/internal/fleet"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/splitting"
)

// The replicas below rebuild each workload from the layers' exported APIs
// with the experiment's stream names, constants and rendering, so that the
// benchmark can time the calls into each layer from outside. A replica
// that drifts from its experiment fails the traced run's output check.

// header writes the banner experiments.Run prints before an experiment.
func header(w io.Writer, id string) error {
	e, err := experiments.Get(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> %s — %s (%s)\n\n", e.ID, e.Title, e.Ref)
	return nil
}

// table renders aligned columns exactly like the experiments' tables.
type table struct{ w *tabwriter.Writer }

func newTable(out io.Writer) *table { return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)} }

func (t *table) row(cells ...string) { fmt.Fprintln(t.w, strings.Join(cells, "\t")) }

func (t *table) rule(cols int) {
	cells := make([]string, cols)
	for i := range cells {
		cells[i] = "----"
	}
	t.row(cells...)
}

// verdict is one repetition's audit outcome.
type verdict struct {
	pass    bool
	failure string
}

// foldRow aggregates per-run verdicts into a campaign row; the first
// failure is the lowest-indexed one.
func foldRow(class string, vs []verdict) experiments.CampaignRow {
	row := experiments.CampaignRow{Class: class, Runs: len(vs)}
	for _, v := range vs {
		if v.pass {
			row.Passed++
		} else if row.FirstFailure == "" {
			row.FirstFailure = v.failure
		}
	}
	return row
}

// sec8Worker is one pool worker's state in the sec8-bursts replica.
type sec8Worker struct {
	cl     *sim.BatchDiagCluster
	pool   *rng.Pool
	l      *ledger
	inject []int
}

var obedient4 = []int{1, 2, 3, 4}

// burstRows is the traced twin of experiments.BurstCampaign on the batched
// path: twelve classes, each a gang-scheduled campaign over lane-packed
// clusters, with every injected train wrapped in a timedFault.
func burstRows(p experiments.Params, t *passTrace) ([]experiments.CampaignRow, error) {
	src := rng.NewSource(p.Seed)
	gang := core.BatchLanes(4)
	var rows []experiments.CampaignRow
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			slots, startSlot := slots, startSlot
			workers := 0
			t0 := time.Now()
			verdicts, err := campaign.RunBatchedWith(campaign.Options{Workers: p.Workers}, p.Runs, gang,
				func() (*sec8Worker, error) {
					l := t.newLedger()
					ts := time.Now()
					cl, err := sim.NewBatchDiagCluster(sim.ClusterConfig{Ls: prototypeLs})
					l.sim += since(ts)
					workers++
					return &sec8Worker{cl: cl, pool: src.NewPool(), l: l}, err
				},
				func(w *sec8Worker, base, width int, out []verdict) error {
					tb := time.Now()
					err := w.gang(base, width, slots, startSlot, out)
					w.l.busy += since(tb)
					w.l.tasks++
					return err
				})
			t.pooled(workers, since(t0))
			if err != nil {
				return nil, err
			}
			rows = append(rows, foldRow(
				fmt.Sprintf("burst %d slot(s) from slot %d", slots, startSlot), verdicts))
		}
	}
	return rows, nil
}

// gang runs one gang of burst repetitions base..base+width-1.
func (w *sec8Worker) gang(base, width, slots, startSlot int, out []verdict) error {
	t0 := time.Now()
	if err := w.cl.ResetBatch(width); err != nil {
		return err
	}
	w.l.sim += since(t0)
	w.pool.Recycle()
	sched := w.cl.Schedule()
	w.inject = w.inject[:0]
	horizon := 0
	for lane := 0; lane < width; lane++ {
		tr := time.Now()
		stream := w.pool.Stream(fmt.Sprintf("sec8-bursts/%d-from-%d/run-%d", slots, startSlot, base+lane))
		w.l.rng += since(tr)
		w.l.rngStreams++
		injectRound := 5 + stream.Intn(6)
		train := fault.NewTrain(fault.SlotBurst(sched, injectRound, startSlot, slots))
		w.cl.AddLaneDisturbance(lane, &timedFault{d: train, l: w.l})
		w.cl.SetLaneHorizon(lane, injectRound+10)
		w.inject = append(w.inject, injectRound)
		horizon = max(horizon, injectRound+10)
	}
	t0 = time.Now()
	if err := w.cl.Run(); err != nil {
		return err
	}
	w.l.sim += since(t0)
	w.l.simRounds += int64(horizon)
	w.l.simBits += int64(horizon * width * 4)
	for lane := 0; lane < width; lane++ {
		ta := time.Now()
		err := sim.AuditTheorem1(w.cl.LaneTruth(lane), w.cl.LaneCollector(lane), obedient4, 4, w.inject[lane]+6)
		w.l.audit += since(ta)
		w.l.auditCalls++
		if err != nil {
			out[lane] = verdict{failure: err.Error()}
		} else {
			out[lane] = verdict{pass: true}
		}
	}
	return nil
}

// replicaSec8 renders the traced sec8-bursts pass.
func replicaSec8(p experiments.Params, t *passTrace) ([]byte, error) {
	rows, err := burstRows(p, t)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := header(&buf, "sec8-bursts"); err != nil {
		return nil, err
	}
	tb := newTable(&buf)
	tb.row("experiment class", "passed", "first failure")
	tb.rule(3)
	total, passed := 0, 0
	for _, r := range rows {
		tb.row(r.Class, fmt.Sprintf("%d/%d", r.Passed, r.Runs), r.FirstFailure)
		total += r.Runs
		passed += r.Passed
	}
	if err := tb.w.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "\n%d/%d injections passed their audits\n\n", passed, total)
	return buf.Bytes(), nil
}

// replicaFleet is the traced twin of the fleet-resilience experiment at a
// single geometry: fleet.New + Campaign.Run with hooks that repeat the
// experiment's scenario, timing each shard's rounds, collector, fault
// train and audit, and the serial gateway phase.
func replicaFleet(p experiments.Params, t *passTrace) ([]byte, error) {
	var buf bytes.Buffer
	if err := header(&buf, "fleet-resilience"); err != nil {
		return nil, err
	}
	tb := newTable(&buf)
	tb.row("nodes", "shards", "shard size", "runs", "intra violations", "gw violations", "outages isolated", "mean latency")
	tb.rule(8)
	src := rng.NewSource(p.Seed)
	c, err := fleet.New(fleetConfig(p))
	if err != nil {
		return nil, err
	}
	s := p.FleetShards
	intraViol, gwViol, isolated, latSum := 0, 0, 0, 0
	for run := 0; run < p.Runs; run++ {
		prefix := fmt.Sprintf("fleet/N%d-S%d/run-%d", p.FleetNodes, p.FleetShards, run)
		tr := time.Now()
		scen := src.Stream(prefix + "/scenario")
		t.main.rng += since(tr)
		t.main.rngStreams++
		victim := scen.Intn(s)
		outage, gwf := -1, -1
		outageRound, gwfRound := 0, 0
		if s >= 2 {
			outage = (victim + 1 + scen.Intn(s-1)) % s
			outageRound = 8 + scen.Intn(4)
			if s >= 3 {
				gwf = (outage + 1 + scen.Intn(s-1)) % s
				gwfRound = 4 + scen.Intn(3)
			}
		}
		shards := make([]ledger, s)
		t.sharded = true
		for i := range shards {
			t.workerL = append(t.workerL, &shards[i])
		}
		hooks := fleet.Hooks{
			Prepare: tracedPrepare(t, shards, prefix, victim),
			GatewayDrop: func(round, g int) bool {
				if outage >= 0 && g == outage+1 && round >= outageRound {
					return true
				}
				return gwf >= 0 && g == gwf+1 && round >= gwfRound && round < gwfRound+2
			},
		}
		runStart := time.Since(t.start)
		res, err := c.Run(src, hooks)
		if err != nil {
			return nil, err
		}
		runEnd := int64(time.Since(t.start))
		var lastShard int64
		for i := range shards {
			lastShard = max(lastShard, shards[i].end)
		}
		t.pooled(shardWorkers(p), lastShard-int64(runStart))
		t.gateway += runEnd - lastShard
		for _, sr := range res.Shards {
			if sr.Verdict != "" {
				intraViol++
				break
			}
		}
		if gr := res.Gateway; gr != nil {
			gwViol += gatewayViolations(gr, c.Sizes(), outage, gwf)
			if iso := gr.IsolationRound[outage+1]; iso >= 0 {
				isolated++
				latSum += iso - outageRound
			}
		}
	}
	sizes := c.Sizes()
	minSz, maxSz := sizes[0], sizes[0]
	for _, sz := range sizes {
		minSz, maxSz = min(minSz, sz), max(maxSz, sz)
	}
	sizeCol := strconv.Itoa(minSz)
	if maxSz != minSz {
		sizeCol = fmt.Sprintf("%d-%d", minSz, maxSz)
	}
	isoCol, latCol := "-", "-"
	if s >= 2 {
		isoCol = fmt.Sprintf("%d/%d", isolated, p.Runs)
		if isolated > 0 {
			latCol = fmt.Sprintf("%.1f rounds", float64(latSum)/float64(isolated))
		}
	}
	tb.row(strconv.Itoa(p.FleetNodes), strconv.Itoa(s), sizeCol, strconv.Itoa(p.Runs),
		strconv.Itoa(intraViol), strconv.Itoa(gwViol), isoCol, latCol)
	if err := tb.w.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf, "\nevery node stays on the packed fast path; whole-shard outages are isolated by the same Alg. 1 pipeline one level up")
	fmt.Fprintln(&buf)
	return buf.Bytes(), nil
}

// tracedPrepare is the experiment's burst hook with spans: it wraps every
// node's output hook, injects the victim shard's single-slot burst through
// a timedFault, and returns an audit closure for every shard so that the
// shard's rounds are timed from Prepare's return to the closure's call.
// shards[i] is written only by the goroutine running shard i.
func tracedPrepare(t *passTrace, shards []ledger, prefix string, victim int) func(fleet.ShardRun) (func() string, error) {
	return func(sr fleet.ShardRun) (func() string, error) {
		l := &shards[sr.Shard]
		busy := time.Now()
		for id := 1; id <= sr.Size; id++ {
			r := sr.Cluster.Runners[id]
			hook := r.OnOutput
			r.OnOutput = func(out core.RoundOutput) {
				if timedCall(l.collectorCalls) {
					tc := time.Now()
					hook(out)
					l.collector += since(tc)
					l.collectorTimed++
				} else {
					hook(out)
				}
				l.collectorCalls++
			}
		}
		eng := sr.Cluster.Eng
		inject := -1
		if sr.Shard == victim {
			tr := time.Now()
			stream := sr.Pool.Stream(fmt.Sprintf("%s/shard-%d", prefix, sr.Shard))
			l.rng += since(tr)
			l.rngStreams++
			inject = 6 + stream.Intn(3)
			node := 2 + stream.Intn(sr.Size-1)
			train := fault.NewTrain(fault.SlotBurst(eng.Schedule(), inject, node, 1))
			eng.Bus().AddDisturbance(&timedFault{d: train, l: l})
		}
		col, size := sr.Collector, sr.Size
		rounds := time.Now()
		return func() string {
			l.sim += since(rounds)
			l.simRounds += fleetRounds
			l.simBits += int64(size * fleetRounds)
			verdict := ""
			if inject >= 0 {
				obedient := make([]int, size)
				for i := range obedient {
					obedient[i] = i + 1
				}
				ta := time.Now()
				err := sim.AuditTheorem1(eng, col, obedient, 4, inject+6)
				l.audit += since(ta)
				l.auditCalls++
				if err != nil {
					verdict = err.Error()
				}
			}
			l.busy += since(busy)
			l.tasks++
			l.end = int64(time.Since(t.start))
			return verdict
		}, nil
	}
}

// gatewayViolations mirrors the experiment's fleet-level scoring:
// cross-gateway health-vector consistency, no spurious isolation, and
// intact summaries at every surviving gateway.
func gatewayViolations(gr *fleet.GatewayResult, sizes []int, outage, gwf int) int {
	viol := 0
	s := len(sizes)
	for _, hvs := range gr.HVs {
		if hvs == nil {
			continue
		}
		var ref core.BitSyndrome
		refSet := false
		for g := 1; g <= s; g++ {
			hv := hvs[g]
			if hv.Known == 0 {
				continue
			}
			if !refSet {
				ref, refSet = hv, true
			} else if hv != ref {
				viol++
			}
		}
	}
	for g := 1; g <= s; g++ {
		if g == outage+1 {
			continue
		}
		if gr.IsolationRound[g] >= 0 {
			viol++
		}
		if gr.Received[g].Size != sizes[g-1] {
			viol++
		}
	}
	return viol
}

// The rare-event experiment's constants: per-round fault probability,
// default level count and the two estimated classes.
const (
	rareFaultProb = 0.05
	rareLevelsN   = 8
)

var rareClasses = []string{"wrong-isolation", "second-transient"}

// rareCluster is the experiment's N=4 cluster with penalty threshold
// levels-1 and reward threshold 2.
func rareCluster() sim.ClusterConfig {
	return sim.ClusterConfig{
		N:  4,
		PR: core.PRConfig{PenaltyThreshold: rareLevelsN - 1, RewardThreshold: 2},
	}
}

// rareLevels returns a class's penalty-threshold levels.
func rareLevels(class string) []int64 {
	if class == "second-transient" {
		return []int64{1, 2}
	}
	levels := make([]int64, rareLevelsN)
	for i := range levels {
		levels[i] = int64(i + 1)
	}
	return levels
}

func rareDetail(class string) string {
	if class == "second-transient" {
		return "second fault scored before a reward regenerates (penalty reaches 2)"
	}
	return fmt.Sprintf("benign node isolated (penalty reaches %d)", rareLevelsN)
}

// replicaRare times splitting.Run for both classes; the splitting engine
// has no seams for finer spans, so its Result supplies the counts.
func replicaRare(p experiments.Params, t *passTrace) ([]byte, error) {
	var buf bytes.Buffer
	if err := header(&buf, "rare-event"); err != nil {
		return nil, err
	}
	cluster := rareCluster()
	fmt.Fprintf(&buf, "fixed-effort multilevel splitting: %d trials/level, fault prob %.3g/round, %d-node cluster, penalty threshold %d, reward threshold %d\n",
		p.SplitEffort, rareFaultProb, cluster.N, cluster.PR.PenaltyThreshold, cluster.PR.RewardThreshold)
	src := rng.NewSource(p.Seed)
	for _, class := range rareClasses {
		cfg := splitting.Config{
			Cluster:   cluster,
			Levels:    rareLevels(class),
			Effort:    p.SplitEffort,
			FaultProb: rareFaultProb,
			Workers:   p.Workers,
			Name:      "rare/" + class,
		}
		cpu := cpuTime()
		t0 := time.Now()
		res, err := splitting.Run(cfg, src)
		t.split += since(t0)
		t.splitCPU += int64(cpuTime() - cpu)
		if err != nil {
			return nil, err
		}
		t.splitRes.add(res)
		if err := renderRare(&buf, class, res); err != nil {
			return nil, err
		}
	}
	fmt.Fprintln(&buf)
	return buf.Bytes(), nil
}

// renderRare mirrors the experiment's per-class rendering.
func renderRare(w io.Writer, class string, res *splitting.Result) error {
	fmt.Fprintf(w, "\n-- %s: %s --\n", class, rareDetail(class))
	tb := newTable(w)
	tb.row("level", "threshold", "hits/trials", "p", "wilson 95%", "rounds")
	tb.rule(6)
	for i, lr := range res.Levels {
		tb.row(
			strconv.Itoa(i+1),
			strconv.FormatInt(lr.Threshold, 10),
			fmt.Sprintf("%d/%d", lr.Hits, lr.Trials),
			fmt.Sprintf("%.4f", lr.P),
			fmt.Sprintf("[%.4f, %.4f]", lr.WilsonLo, lr.WilsonHi),
			strconv.FormatInt(lr.Rounds, 10),
		)
	}
	if err := tb.w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "P = %.3e   relative error %.1f%%\n", res.P, 100*res.RelErr)
	fmt.Fprintf(w, "simulated %d rounds (%d node-rounds, %d clone checkpoints)\n",
		res.Rounds, res.NodeRounds, res.Clones)
	if res.P > 0 && res.P < 1 {
		fmt.Fprintf(w, "naive MC at the same error: %.2e trials = %.2e rounds (%.1e x more)\n",
			res.NaiveTrials, res.NaiveRounds, res.NaiveRounds/float64(res.Rounds))
	}
	return nil
}
