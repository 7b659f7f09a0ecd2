package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/experiments"
	"ttdiag/internal/fleet"
	"ttdiag/internal/metrics"
	"ttdiag/internal/sim"
)

// defaultSeed is the seed of the paper-scale campaigns and of the recorded
// output digests.
const defaultSeed = 2007

// workload is one named input set: the experiment it runs through
// experiments.Run, the size of one pass, and the checks its output must pass.
type workload struct {
	name string
	// id is the experiment ID handed to experiments.Run.
	id string
	// params sizes one pass; Seed, Workers and Out are filled in per run.
	params experiments.Params
	// digest is the SHA-256 of one pass's rendered output at defaultSeed
	// and the default size; "" skips the comparison (shrunk test sizes).
	digest string
	// setup builds the reusable simulation state the entry point builds,
	// through the same public constructors.
	setup func(p experiments.Params) error
	// nodeRounds counts the node-rounds of one pass from its metrics
	// snapshot.
	nodeRounds func(p experiments.Params, s metrics.Snapshot) int64
	// check runs the workload's output checks on a pass's rendered output.
	check func(c *checker, p experiments.Params, out []byte) error
	// replica is the traced pass: it rebuilds the workload from the
	// layers' exported APIs with timing wrappers and returns the rendered
	// output, which must equal the untraced output byte for byte.
	replica func(p experiments.Params, t *passTrace) ([]byte, error)
}

// workloads returns the benchmark's workloads at their default sizes.
func workloads() []*workload {
	return []*workload{
		{
			name:       "sec8-bursts",
			id:         "sec8-bursts",
			params:     experiments.Params{Batched: true, Runs: 400},
			digest:     "03bc9911b62f7601151b795f608d1161c60e6fed6d8eb0c41506a35b383e7113",
			setup:      setupSec8,
			nodeRounds: func(_ experiments.Params, s metrics.Snapshot) int64 { return s.Counters["protocol/steps"] },
			check:      checkSec8,
			replica:    replicaSec8,
		},
		{
			name:       "fleet-1024x16",
			id:         "fleet-resilience",
			params:     experiments.Params{FleetNodes: 1024, FleetShards: 16, Runs: 1},
			digest:     "567b5de7946fd353306664ee21e976c39cfd5efa167d91985f1f1f57a098eeae",
			setup:      setupFleet,
			nodeRounds: fleetNodeRounds,
			check:      checkFleet,
			replica:    replicaFleet,
		},
		{
			name:       "rare-event",
			id:         "rare-event",
			params:     experiments.Params{SplitEffort: 3000},
			digest:     "f8ac7c70fbc1eb579ba927d31cd8f37ab36ca0439c2d20c5377982abeec53480",
			setup:      setupRare,
			nodeRounds: rareNodeRounds,
			check:      checkRare,
			replica:    replicaRare,
		},
	}
}

// lookup returns the named workload at its default size.
func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// passParams returns the parameters of one pass at the given seed. Out is
// left for the caller; Workers is the run's worker count.
func (w *workload) passParams(seed int64, workers int) experiments.Params {
	p := w.params
	p.Seed = seed
	p.Workers = workers
	return p
}

// pass runs one untraced pass through the entry point ttdiag-experiments
// uses, rendering into buf (reset first).
func (w *workload) pass(p experiments.Params, buf *bytes.Buffer) error {
	buf.Reset()
	p.Out = buf
	return experiments.Run(w.id, p)
}

// checker counts the correctness checks of a run.
type checker struct {
	attempted, failed int
	failures          []string
}

// expect records one check; format describes the failure.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 8 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkDigest compares a pass's output to the digest recorded at the
// default seed and size.
func (w *workload) checkDigest(c *checker, seed int64, out []byte) {
	if seed != defaultSeed || w.digest == "" {
		return
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	c.expect(got == w.digest, "%s: output digest %s, recorded %s", w.name, got, w.digest)
}

// setupSample returns the mean time to build the workload's reusable
// state in a batch of setupBatch builds, started on a collected heap.
// Batching spreads the cost of touching fresh memory after a collection,
// which made single builds of a few tens of microseconds vary by a third
// from run to run.
func (w *workload) setupSample(p experiments.Params) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	for j := 0; j < setupBatch; j++ {
		if err := w.setup(p); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / setupBatch, nil
}

// prototypeLs is the node schedule of the Sec. 8 campaigns (the add-on
// deployment with detection latency k-3); it mirrors the experiment's.
var prototypeLs = []int{2, 0, 3, 1}

// setupSec8 builds one lane-packed cluster per worker, as every Sec. 8
// campaign class does.
func setupSec8(p experiments.Params) error {
	for i := 0; i < p.Workers; i++ {
		if _, err := sim.NewBatchDiagCluster(sim.ClusterConfig{Ls: prototypeLs}); err != nil {
			return err
		}
	}
	return nil
}

// setupFleet builds the fleet campaign and one shard cluster per worker and
// distinct shard size, as fleet.Campaign.Run does lazily.
func setupFleet(p experiments.Params) error {
	c, err := fleet.New(fleetConfig(p))
	if err != nil {
		return err
	}
	sizes := map[int]bool{}
	for _, n := range c.Sizes() {
		sizes[n] = true
	}
	for i := 0; i < shardWorkers(p); i++ {
		for n := range sizes {
			cfg := sim.ClusterConfig{N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4}
			if _, err := sim.NewReusableDiagnosticCluster(cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupRare builds the splitting engine's boot cluster and its base
// checkpoint plus one trial cluster per worker.
func setupRare(p experiments.Params) error {
	cfg := rareCluster()
	boot, err := sim.NewReusableDiagnosticCluster(cfg)
	if err != nil {
		return err
	}
	if _, err := sim.NewClusterCheckpoint(boot); err != nil {
		return err
	}
	for i := 0; i < p.Workers; i++ {
		if _, err := sim.NewReusableDiagnosticCluster(cfg); err != nil {
			return err
		}
	}
	return nil
}

// fleetNodeRounds counts intra-shard protocol steps plus one node-round per
// gateway per gateway round.
func fleetNodeRounds(p experiments.Params, s metrics.Snapshot) int64 {
	return s.Counters["protocol/steps"] + s.Counters["fleet/gateway/rounds"]*int64(p.FleetShards)
}

// rareNodeRounds counts every simulated round of both splitting classes on
// the N=4 cluster.
func rareNodeRounds(_ experiments.Params, s metrics.Snapshot) int64 {
	var rounds int64
	for _, class := range rareClasses {
		rounds += s.Counters["rare/"+class+"/rounds"]
	}
	return rounds * int64(rareCluster().N)
}

// checkSec8 requires every class row to pass all its Theorem-1 audits and
// the batched output to equal the per-run path's output.
func checkSec8(c *checker, p experiments.Params, out []byte) error {
	classes := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "burst ") {
			continue
		}
		classes++
		f := strings.Fields(line)
		want := fmt.Sprintf("%d/%d", p.Runs, p.Runs)
		c.expect(len(f) >= 7 && f[6] == want, "sec8-bursts: row %q: want %s audits passed", line, want)
	}
	c.expect(classes == 12, "sec8-bursts: %d class rows, want 12", classes)
	total := fmt.Sprintf("%d/%d injections passed their audits", 12*p.Runs, 12*p.Runs)
	c.expect(bytes.Contains(out, []byte(total)), "sec8-bursts: summary line %q missing", total)

	perRun := p
	perRun.Batched = false
	var buf bytes.Buffer
	perRun.Out = &buf
	if err := experiments.Run("sec8-bursts", perRun); err != nil {
		return err
	}
	c.expect(bytes.Equal(buf.Bytes(), out), "sec8-bursts: batched output differs from the per-run output")
	return nil
}

// checkFleet requires zero intra-shard and gateway violations and every
// outage isolated.
func checkFleet(c *checker, p experiments.Params, out []byte) error {
	prefix := fmt.Sprintf("%d ", p.FleetNodes)
	rows := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rows++
		f := strings.Fields(line)
		if len(f) < 7 {
			c.expect(false, "fleet: malformed row %q", line)
			continue
		}
		c.expect(f[4] == "0", "fleet: %s intra-shard violations", f[4])
		c.expect(f[5] == "0", "fleet: %s gateway violations", f[5])
		want := fmt.Sprintf("%d/%d", p.Runs, p.Runs)
		c.expect(f[6] == want, "fleet: outages isolated %s, want %s", f[6], want)
	}
	c.expect(rows == 1, "fleet: %d result rows, want 1", rows)
	return nil
}

// checkRare requires every level row to spend the full effort with no more
// hits than trials, every estimate to lie in [0, 1], an estimate above 0
// to have climbed every level, and the moderate second-transient event to
// be hit. Wrong isolation may stop at a dry level (P = 0) at small effort.
func checkRare(c *checker, p experiments.Params, out []byte) error {
	sections := strings.Split(string(out), "\n-- ")[1:]
	c.expect(len(sections) == len(rareClasses), "rare-event: %d class sections, want %d", len(sections), len(rareClasses))
	for i, sec := range sections {
		if i >= len(rareClasses) {
			break
		}
		class := rareClasses[i]
		levels := 0
		var est float64 = -1
		for _, line := range strings.Split(sec, "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) >= 3 && strings.Contains(f[2], "/") && f[0] != "level":
				levels++
				hits, trials, ok := strings.Cut(f[2], "/")
				h, err1 := strconv.Atoi(hits)
				t, err2 := strconv.Atoi(trials)
				c.expect(ok && err1 == nil && err2 == nil && t == p.SplitEffort && h <= t,
					"rare-event: %s level row %q: want hits <= trials = %d", class, line, p.SplitEffort)
			case len(f) >= 3 && f[0] == "P" && f[1] == "=":
				v, err := strconv.ParseFloat(f[2], 64)
				c.expect(err == nil && v >= 0 && v <= 1, "rare-event: %s estimate %q outside [0, 1]", class, f[2])
				if err == nil {
					est = v
				}
			}
		}
		want := len(rareLevels(class))
		c.expect(levels >= 1 && levels <= want, "rare-event: %s has %d level rows, want 1..%d", class, levels, want)
		if est > 0 {
			c.expect(levels == want, "rare-event: %s estimate %g > 0 after %d of %d levels", class, est, levels, want)
		}
		if class == "second-transient" {
			c.expect(est > 0, "rare-event: second-transient estimate %g, want > 0", est)
		}
	}
	return nil
}

// shardWorkers is the worker count of the fleet's shard phase.
func shardWorkers(p experiments.Params) int {
	if p.FleetShards < p.Workers {
		return p.FleetShards
	}
	return p.Workers
}

// fleetConfig mirrors the fleet-resilience experiment's campaign
// configuration for one geometry.
func fleetConfig(p experiments.Params) fleet.Config {
	return fleet.Config{
		Nodes: p.FleetNodes, Shards: p.FleetShards, Rounds: fleetRounds,
		Workers: p.Workers, GatewayPR: fleetGatewayPR,
	}
}

// The fleet-resilience experiment's constants.
var fleetGatewayPR = core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8}

const fleetRounds = 24
