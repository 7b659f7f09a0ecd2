// Command perfbench is ttdiag's end-to-end benchmark. Each workload runs
// one experiment pass after another through experiments.Run, the entry
// point of ttdiag-experiments, in-process, with telemetry and tracing off,
// checks every pass's output, and prints the end-to-end metrics. With
// -trace 1 it instead alternates untraced passes with traced replica passes
// that time the calls into each layer from outside, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sec8-bursts --seed 2007 --seconds 20 --trace 0
//
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ttdiag/internal/experiments"
	"ttdiag/internal/metrics"
)

const (
	// A set-up sample is the mean time of setupBatch builds of the set-up
	// state; a run takes one after every timed pass and at least
	// setupSamples in all. setup_s is their median.
	setupSamples = 101
	setupBatch   = 10
	// minPasses keeps at least ten passes beyond pass_ms_p90. A traced run
	// makes at least minPasses/2 pairs of untraced and traced passes.
	minPasses = 100
	// memoryPasses is the number of untimed passes peak_rss_mb is the
	// median of.
	memoryPasses = 11
	// rateWindow is the least pass time of one node_rounds_per_s window.
	rateWindow = time.Second
)

// spec names one printed metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"pass_ms_p50", "ms"},
	{"pass_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"pass_ratio", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not use reads 0.
var perLayer = []spec{
	{"fault.calls", "count"},
	{"fault.ns_per_call", "ns"},
	{"fault.ms", "ms"},
	{"fault.hit_ratio", "ratio"},
	{"sim.rounds", "count"},
	{"sim.lane_occupancy", "ratio"},
	{"sim.round_ms", "ms"},
	{"sim.ns_per_node_round", "ns"},
	{"sim.collector_ms", "ms"},
	{"sim.audit_calls", "count"},
	{"sim.audit_ms", "ms"},
	{"rng.streams", "count"},
	{"rng.ns_per_stream", "ns"},
	{"campaign.tasks", "count"},
	{"campaign.busy_ratio", "ratio"},
	{"campaign.ms", "ms"},
	{"fleet.shard_ms", "ms"},
	{"fleet.gateway_ms", "ms"},
	{"fleet.gateway_rounds", "count"},
	{"splitting.trials", "count"},
	{"splitting.hit_ratio", "ratio"},
	{"splitting.rounds", "count"},
	{"splitting.restores", "count"},
	{"splitting.clones", "count"},
	{"splitting.ns_per_round", "ns"},
	{"tdma.slots", "count"},
	{"tdma.tx_correct", "count"},
	{"tdma.tx_benign", "count"},
	{"core.steps", "count"},
	{"core.isolations", "count"},
	{"runtime.alloc_bytes_per_node_round", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sec8-bursts, fleet-1024x16 or rare-event")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v, want > 0", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", *traced)
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		workers:   min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		minPasses: minPasses,
	}
	var r *report
	if *traced == 1 {
		r, err = traceRun(w, cfg)
	} else {
		r, err = measure(w, cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return r.print(stdout, newEnvironment(w.name, cfg.seed, r.passes, *traced == 1))
}

// runConfig is what every run shares.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	workers   int
	minPasses int
}

// report is a finished run: its checks, metrics and human-readable extras.
type report struct {
	c      checker
	specs  []spec
	values map[string]float64
	passes int
	ledger []string // traced runs: the layer ledger rows
}

// firstPass runs the reference pass, checks its digest, and runs the
// untimed counting pass with the metrics report on, which must render the
// same output.
func (w *workload) firstPass(c *checker, p experiments.Params) ([]byte, metrics.Snapshot, error) {
	var ref, buf bytes.Buffer
	if err := w.pass(p, &ref); err != nil {
		return nil, metrics.Snapshot{}, err
	}
	w.checkDigest(c, p.Seed, ref.Bytes())
	counted := p
	counted.Metrics = metrics.NewReport("perfbench", p.Seed, p.Runs)
	if err := w.pass(counted, &buf); err != nil {
		return nil, metrics.Snapshot{}, err
	}
	c.expect(bytes.Equal(buf.Bytes(), ref.Bytes()), "%s: output with metrics on differs from the first pass", w.name)
	return ref.Bytes(), counted.Metrics.Snapshot(w.id), nil
}

// measure is the untraced run: the reference pass, then timed passes for
// the configured time, each checked against the reference output and
// followed by one set-up sample, so that set-up is timed across the same
// stretch of the run as the passes. Every pass starts from a collected
// heap, as a fresh ttdiag-experiments process does, so that garbage one
// pass leaves does not tax the next.
func measure(w *workload, cfg runConfig) (*report, error) {
	p := w.passParams(cfg.seed, cfg.workers)
	r := &report{specs: endToEnd}
	ref, snap, err := w.firstPass(&r.c, p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var durs, setup []time.Duration
	start := time.Now()
	for len(durs) < cfg.minPasses || time.Since(start) < cfg.seconds {
		runtime.GC()
		t0 := time.Now()
		if err := w.pass(p, &buf); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
		r.c.expect(bytes.Equal(buf.Bytes(), ref), "%s: pass %d output differs from the first pass", w.name, len(durs))
		d, err := w.setupSample(p)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}
	for len(setup) < setupSamples {
		d, err := w.setupSample(p)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}
	peak, err := w.peakRSS(&r.c, p, ref)
	if err != nil {
		return nil, err
	}
	if err := w.check(&r.c, p, ref); err != nil {
		return nil, err
	}
	nodeRounds := w.nodeRounds(p, snap)
	r.passes = len(durs)
	r.values = map[string]float64{
		"setup_s":           quantile(setup, 0.5).Seconds(),
		"node_rounds_per_s": medianRate(durs, nodeRounds),
		"pass_ms_p50":       ms(quantile(durs, 0.5)),
		"pass_ms_p90":       ms(quantile(durs, 0.9)),
		"peak_rss_mb":       peak,
		"pass_ratio":        float64(r.c.attempted-r.c.failed) / float64(r.c.attempted),
	}
	return r, nil
}

// peakRSS runs memoryPasses untimed passes, each after the heap has been
// collected and returned to the OS, and returns the median resident set
// at their ends: the peak a fresh process running one pass reaches. Go
// keeps heap pages resident until its scavenger returns them, so the end
// of a pass sits at the pass's peak. The median of such passes repeats
// from run to run, where the process's high-water mark depends on the GC
// timing of its single worst pass.
func (w *workload) peakRSS(c *checker, p experiments.Params, ref []byte) (float64, error) {
	var buf bytes.Buffer
	rss := make([]float64, memoryPasses)
	for i := range rss {
		debug.FreeOSMemory()
		if err := w.pass(p, &buf); err != nil {
			return 0, err
		}
		v, err := residentMB()
		if err != nil {
			return 0, err
		}
		rss[i] = v
		c.expect(bytes.Equal(buf.Bytes(), ref), "%s: memory pass %d output differs from the first pass", w.name, i+1)
	}
	sort.Float64s(rss)
	return rss[len(rss)/2], nil
}

// traceRun alternates untraced passes with traced replica passes and
// reports the per-layer metrics, the tracing overhead and the share of
// traced wall time no layer covers.
func traceRun(w *workload, cfg runConfig) (*report, error) {
	p := w.passParams(cfg.seed, cfg.workers)
	r := &report{specs: perLayer}
	ref, snap, err := w.firstPass(&r.c, p)
	if err != nil {
		return nil, err
	}
	var (
		buf           bytes.Buffer
		plain, traced []time.Duration
		rt            runtimeSample
		sums          layerSums
	)
	sums.timerIn, sums.timerPair = timerCost()
	start := time.Now()
	for len(traced) < cfg.minPasses/2 || time.Since(start) < cfg.seconds {
		runtime.GC()
		a := readRuntime()
		t0 := time.Now()
		if err := w.pass(p, &buf); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0))
		rt.addDelta(a, readRuntime())
		r.c.expect(bytes.Equal(buf.Bytes(), ref), "%s: untraced pass %d differs from the first pass", w.name, len(plain))

		runtime.GC()
		pt := newPassTrace(cfg.workers)
		out, err := w.replica(p, pt)
		if err != nil {
			return nil, err
		}
		wall := time.Since(pt.start)
		traced = append(traced, wall)
		sums.add(pt, int64(wall))
		r.c.expect(bytes.Equal(out, ref), "%s: traced pass %d output differs from the untraced output", w.name, len(traced))
	}
	if err := w.check(&r.c, p, ref); err != nil {
		return nil, err
	}
	r.passes = len(traced)
	nodeRounds := w.nodeRounds(p, snap)
	r.values = layerMetrics(&sums, snap, nodeRounds, rt, len(plain))
	r.values["trace.overhead_pct"] = 100 * (ratio(int64(quantile(traced, 0.5)), int64(quantile(plain, 0.5))) - 1)
	r.ledger = sums.rows()
	return r, nil
}

// layerMetrics derives the per-layer metrics from the traced passes'
// sums, the counting pass's snapshot and the runtime deltas read around
// the untraced passes. Counts are per pass.
func layerMetrics(s *layerSums, snap metrics.Snapshot, nodeRounds int64, rt runtimeSample, plainPasses int) map[string]float64 {
	n := float64(s.passes)
	perPass := func(v int64) float64 { return float64(v) / n }
	msPerPass := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	cnt := snap.Counters
	busy := ratio(s.counts.busy, s.capacity)
	tasks := perPass(s.counts.tasks)
	if s.splitRes.trials > 0 {
		// The splitting engine's tasks have no seams: its busy share is the
		// process CPU time over its calls, its tasks the trials.
		busy = ratio(s.splitCPU, s.capacity)
		tasks = perPass(s.splitRes.trials)
	}
	return map[string]float64{
		"fault.calls":                        perPass(s.counts.faultCalls),
		"fault.ns_per_call":                  ratio(s.faultG, s.counts.faultCalls),
		"fault.ms":                           msPerPass(s.fault),
		"fault.hit_ratio":                    ratio(s.counts.faultHits, s.counts.faultCalls),
		"sim.rounds":                         perPass(s.counts.simRounds + s.splitRes.rounds),
		"sim.lane_occupancy":                 ratio(s.counts.simBits+4*s.splitRes.rounds, 64*(s.counts.simRounds+s.splitRes.rounds)),
		"sim.round_ms":                       msPerPass(s.sim),
		"sim.ns_per_node_round":              ratio(s.simG, cnt["protocol/steps"]*s.passes),
		"sim.collector_ms":                   msPerPass(s.collector),
		"sim.audit_calls":                    perPass(s.counts.auditCalls),
		"sim.audit_ms":                       msPerPass(s.audit),
		"rng.streams":                        perPass(s.counts.rngStreams),
		"rng.ns_per_stream":                  ratio(s.rngG, s.counts.rngStreams),
		"campaign.tasks":                     tasks,
		"campaign.busy_ratio":                busy,
		"campaign.ms":                        msPerPass(s.campaign),
		"fleet.shard_ms":                     msPerPass(s.shard),
		"fleet.gateway_ms":                   msPerPass(s.gateway),
		"fleet.gateway_rounds":               float64(cnt["fleet/gateway/rounds"]),
		"splitting.trials":                   perPass(s.splitRes.trials),
		"splitting.hit_ratio":                ratio(s.splitRes.hits, s.splitRes.trials),
		"splitting.rounds":                   perPass(s.splitRes.rounds),
		"splitting.restores":                 perPass(s.splitRes.restores),
		"splitting.clones":                   perPass(s.splitRes.clones),
		"splitting.ns_per_round":             ratio(s.split*s.workers, s.splitRes.rounds),
		"tdma.slots":                         float64(cnt["tx/correct"] + cnt["tx/benign"] + cnt["tx/malicious"] + cnt["tx/asymmetric"]),
		"tdma.tx_correct":                    float64(cnt["tx/correct"]),
		"tdma.tx_benign":                     float64(cnt["tx/benign"]),
		"core.steps":                         float64(nodeRounds),
		"core.isolations":                    float64(cnt["pr/isolations"] + cnt["fleet/gateway/isolations"]),
		"runtime.alloc_bytes_per_node_round": ratio(int64(rt.allocBytes), nodeRounds*int64(plainPasses)),
		"runtime.gc_cycles":                  float64(rt.gcCycles) / float64(plainPasses),
		"runtime.gc_cpu_pct":                 100 * safeDiv(rt.gcCPU, rt.totalCPU-rt.idleCPU),
		"trace.residual_pct":                 100 * ratio(s.residual(), s.wall),
	}
}

// rows renders the layer ledger: wall-equivalent ms per traced pass and
// share of the traced pass, residual last.
func (s *layerSums) rows() []string {
	n := float64(s.passes)
	var out []string
	for _, l := range []struct {
		name string
		ns   int64
	}{
		{"fault", s.fault}, {"sim", s.sim}, {"sim.collector", s.collector}, {"sim.audit", s.audit},
		{"rng", s.rng}, {"campaign", s.campaign}, {"fleet.gateway", s.gateway},
		{"splitting", s.split}, {"trace timer", s.trace}, {"residual", s.residual()},
	} {
		if l.ns == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%-14s %10.3f ms/pass %6.1f%%", l.name, float64(l.ns)/n/1e6, 100*ratio(l.ns, s.wall)))
	}
	return append(out, fmt.Sprintf("%-14s %10.3f ms/pass %6.1f%%", "traced pass", float64(s.wall)/n/1e6, 100.0))
}

// print writes the environment header, a human-readable metric table and
// the JSON result line.
func (r *report) print(out io.Writer, env environment) error {
	head, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# env %s\n", head)
	res := result{
		Correct:   r.c.failed == 0,
		Attempted: r.c.attempted,
		Failed:    r.c.failed,
		Metrics:   make(map[string]metric, len(r.specs)),
	}
	for _, s := range r.specs {
		v, ok := r.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(out, "%-36s %16.6f %s\n", s.name, v, s.unit)
	}
	fmt.Fprintf(out, "fail_ratio %g (%d of %d checks failed)\n",
		ratio(int64(r.c.failed), int64(r.c.attempted)), r.c.failed, r.c.attempted)
	for _, f := range r.c.failures {
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}
	if len(r.ledger) > 0 {
		fmt.Fprintln(out, "# layer ledger (wall-equivalent self time per traced pass)")
		for _, l := range r.ledger {
			fmt.Fprintf(out, "#   %s\n", l)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// medianRate splits the timed passes, in the order they ran, into windows
// of at least rateWindow of pass time, and returns the median over the
// windows of node-rounds per second of pass time. A trailing window
// shorter than rateWindow counts only when it is the only one. The median
// keeps a host stall that spans a few windows out of the figure, where a
// rate over all passes takes it in whole.
func medianRate(durs []time.Duration, perPass int64) float64 {
	var rates []float64
	var n int64
	var sum time.Duration
	for i, d := range durs {
		n++
		sum += d
		if sum >= rateWindow || (i == len(durs)-1 && len(rates) == 0) {
			rates = append(rates, float64(perPass*n)/sum.Seconds())
			n, sum = 0, 0
		}
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// quantile returns the nearest-rank q-quantile of d (d is sorted in place).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b int64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
