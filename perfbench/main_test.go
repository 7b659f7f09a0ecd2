package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ttdiag/internal/experiments"
)

// tiny returns the named workload at a test size: small enough to run in
// well under a second per pass, large enough to keep several workers, a
// ragged gang, several shards and several splitting levels busy.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "sec8-bursts":
		w.params.Runs = 20
	case "fleet-1024x16":
		w.params.FleetNodes, w.params.FleetShards, w.params.Runs = 128, 4, 2
	case "rare-event":
		w.params.SplitEffort = 200
	}
	w.digest = ""
	return w
}

var testSeeds = []int64{1, defaultSeed}

func testConfig(seed int64) runConfig {
	return runConfig{seed: seed, workers: 2, minPasses: 4}
}

// TestWorkloadsPassTheirChecks runs every workload untraced and traced at
// a tiny size under two seeds: every check passes and every named metric
// is there.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads() {
		for _, seed := range testSeeds {
			w, seed := tiny(t, w.name), seed
			t.Run(fmt.Sprintf("%s/seed=%d", w.name, seed), func(t *testing.T) {
				for _, traced := range []bool{false, true} {
					var r *report
					var err error
					if traced {
						r, err = traceRun(w, testConfig(seed))
					} else {
						r, err = measure(w, testConfig(seed))
					}
					if err != nil {
						t.Fatalf("seed %d traced=%v: %v", seed, traced, err)
					}
					if r.c.failed != 0 || r.c.attempted == 0 {
						t.Errorf("seed %d traced=%v: %d of %d checks failed: %v", seed, traced, r.c.failed, r.c.attempted, r.c.failures)
					}
					var out bytes.Buffer
					if err := r.print(&out, newEnvironment(w.name, seed, r.passes, traced)); err != nil {
						t.Fatalf("seed %d traced=%v: print: %v", seed, traced, err)
					}
					checkResultLine(t, out.String(), r.specs)
					if traced {
						checkUnusedLayers(t, w.name, r.values)
					}
				}
			})
		}
	}
}

// unusedLayers names the metrics, by prefix, of the layers each workload
// does not use.
var unusedLayers = map[string][]string{
	"sec8-bursts":   {"fleet.", "splitting."},
	"fleet-1024x16": {"splitting."},
	"rare-event":    {"fleet.", "fault.", "sim.audit", "sim.collector"},
}

// checkUnusedLayers asserts that the metrics of a layer the workload does
// not use read 0.
func checkUnusedLayers(t *testing.T, workload string, values map[string]float64) {
	t.Helper()
	for _, prefix := range unusedLayers[workload] {
		for name, v := range values {
			if strings.HasPrefix(name, prefix) && v != 0 {
				t.Errorf("%s: %s = %v, want 0 for an unused layer", workload, name, v)
			}
		}
	}
}

// checkResultLine asserts that the last output line is the result object
// with exactly the contract's keys and every named metric with its unit.
func checkResultLine(t *testing.T, out string, specs []spec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
		}
		if !strings.Contains(out, "\n"+s.name+" ") {
			t.Errorf("metric %s missing from the human-readable table", s.name)
		}
	}
}

// TestReplicasMatchEntryPoint pins every replica to experiments.Run
// at a tiny size under two seeds, and the sec8-bursts replica's rows to
// experiments.BurstCampaign.
func TestReplicasMatchEntryPoint(t *testing.T) {
	for _, w := range workloads() {
		for _, seed := range testSeeds {
			w := tiny(t, w.name)
			p := w.passParams(seed, 2)
			var want bytes.Buffer
			if err := w.pass(p, &want); err != nil {
				t.Fatal(err)
			}
			got, err := w.replica(p, newPassTrace(2))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s seed %d: replica output differs from experiments.Run:\n%s\nwant:\n%s", w.name, seed, got, want.Bytes())
			}
		}
	}
	w := tiny(t, "sec8-bursts")
	for _, seed := range testSeeds {
		p := w.passParams(seed, 2)
		want, err := experiments.BurstCampaign(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := burstRows(p, newPassTrace(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: replica rows %v, want %v", seed, got, want)
		}
	}
}

// TestChecksCatchWrongOutput feeds each workload's checks an output with
// one audit, violation or estimate broken.
func TestChecksCatchWrongOutput(t *testing.T) {
	for _, tc := range []struct{ name, from, to string }{
		{"sec8-bursts", "20/20", "19/20"},
		{"fleet-1024x16", "2/2", "1/2"},
		{"rare-event", "/200 ", "/199 "},
	} {
		w := tiny(t, tc.name)
		p := w.passParams(defaultSeed, 2)
		var out bytes.Buffer
		if err := w.pass(p, &out); err != nil {
			t.Fatal(err)
		}
		broken := strings.Replace(out.String(), tc.from, tc.to, 1)
		if broken == out.String() {
			t.Fatalf("%s: %q not in the output", tc.name, tc.from)
		}
		var c checker
		if err := w.check(&c, p, []byte(broken)); err != nil {
			t.Fatal(err)
		}
		if c.failed == 0 {
			t.Errorf("%s: broken output passed all %d checks", tc.name, c.attempted)
		}
	}
}

// TestDigestAtDefaultSeed checks the recorded digests against the default
// size; the sec8-bursts pass is the fastest of the three.
func TestDigestAtDefaultSeed(t *testing.T) {
	w, err := lookup("sec8-bursts")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := w.pass(w.passParams(defaultSeed, 2), &out); err != nil {
		t.Fatal(err)
	}
	var c checker
	w.checkDigest(&c, defaultSeed, out.Bytes())
	if c.attempted != 1 || c.failed != 0 {
		t.Errorf("digest check: %d of %d failed: %v", c.failed, c.attempted, c.failures)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the printed metrics
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, names)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		specs  []spec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if c.listed[i].Name != s.name || c.listed[i].Unit != s.unit {
				t.Errorf("BENCHMARK.json metric %d is %v, the benchmark prints %s %s", i, c.listed[i], s.name, s.unit)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sec8-bursts", "--trace", "2"},
		{"--workload", "sec8-bursts", "--seconds", "0"},
		{"--workload", "sec8-bursts", "extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q, want nothing", args, out.String())
		}
	}
}

func TestMedianRate(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		durs []time.Duration
		want float64
	}{
		// Windows at 20/s, 10/s and 40/s; the trailing 0.1 s is dropped.
		{[]time.Duration{500 * ms, 500 * ms, 1000 * ms, 250 * ms, 250 * ms, 250 * ms, 250 * ms, 100 * ms}, 20},
		// One 4 s stall spans one window of three; the median ignores it.
		{[]time.Duration{1000 * ms, 4000 * ms, 1000 * ms}, 10},
		// A run shorter than one window is its own window.
		{[]time.Duration{200 * ms, 300 * ms}, 40},
	} {
		if got := medianRate(c.durs, 10); got != c.want {
			t.Errorf("medianRate(%v, 10) = %v, want %v", c.durs, got, c.want)
		}
	}
}
