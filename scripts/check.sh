#!/usr/bin/env bash
# check.sh is the repository's full correctness gate: formatting, go vet,
# build, tests, the race detector on the concurrent packages, the
# ttdiag_invariants-enabled test run, the static-analysis suite
# (cmd/ttdiag-lint) and the escape-analysis allocation gate. Run it locally
# before sending a PR. Each step reports its wall-clock duration, and a
# summary table prints at the end. See docs/STATIC_ANALYSIS.md.
#
# Usage: scripts/check.sh [step...]
# With no argument every step runs in order; with arguments only the named
# steps run (CI runs each step this way, so the gate is defined once, here).
# The steps are listed in STEPS below. Setting LINT_JSON=<file> makes the
# lint step print its findings as JSON and also write them to <file>.
set -euo pipefail
cd "$(dirname "$0")/.."

timings=()

# step <title> <command...> runs one gate step, timing it.
step() {
    local title=$1
    shift
    echo "== $title =="
    local start=$SECONDS
    "$@"
    local elapsed=$((SECONDS - start))
    timings+=("$(printf '%4ds  %s' "$elapsed" "$title")")
}

check_gofmt() {
    local unformatted
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

check_metrics_determinism() {
    go test -race -cpu=1,4 ./internal/experiments/ -run TestMetricsWorkerCountInvariance
    go test -race -cpu=1,4 ./internal/cluster/ -run TestClusterMetricsMatchLockStep
}

check_batched_determinism() {
    go test -race -cpu=1,4 ./internal/experiments/ -run 'TestBatchedWorkerCountInvariance|TestBatchedCampaignEquivalence|TestScaleResilienceBatchedEquivalence|TestBatchedTraceEquivalence'
    go test -race -cpu=1,4 ./internal/sim/ -run 'TestBatchClusterEquivalence|TestGangAuditMatchesAuditTheorem1'
}

check_fleet_determinism() {
    go test -race -cpu=1,4 ./internal/fleet/ \
        -run 'TestFleetWorkerCountInvariance|TestFleetShardOrderInvariance|TestFleetMonolithicEquivalence|TestFleetCausalWorkerInvariance'
    go test -race -cpu=1,4 ./internal/experiments/ -run TestFleetCampaignWorkerCountInvariance
}

check_checkpoint_determinism() {
    go test -race -cpu=1,4 ./internal/core/ -run 'TestCopyFromMatchesJSONRestore|TestCopyFromContinuation'
    go test -race -cpu=1,4 ./internal/sim/ -run 'TestClusterCheckpointRewind|TestClusterCheckpointCrossCluster'
    go test -race -cpu=1,4 ./internal/splitting/ -run 'TestRunWorkerCountInvariance|TestRunMatchesDirectMonteCarlo'
    go test -race -cpu=1,4 ./internal/experiments/ -run TestRareEventCampaignWorkerCountInvariance
}

check_lint() {
    if [ -n "${LINT_JSON:-}" ]; then
        go run ./cmd/ttdiag-lint -json -escapes ./... | tee "$LINT_JSON"
    else
        go run ./cmd/ttdiag-lint -escapes ./...
    fi
}

STEPS=(gofmt vet build test race campaign-determinism metrics-determinism
    reuse-equivalence step-equivalence batched-determinism fleet-determinism
    checkpoint-determinism allocs fuzz-vote fuzz-vote-batch fuzz-restore
    invariants lint)

# run_step <name> runs the gate step called <name>.
run_step() {
    case $1 in
    gofmt) step "gofmt" check_gofmt ;;
    vet) step "go vet" go vet ./... ;;
    build) step "go build" go build ./... ;;
    test) step "go test" go test ./... ;;
    race)
        step "go test -race (concurrent packages)" \
            go test -race ./internal/cluster/... ./internal/sim/... ./internal/campaign/... ./internal/fleet/... ./internal/splitting/... ./internal/trace/...
        ;;
    campaign-determinism)
        step "go test -race -cpu=1,4 (campaign determinism)" \
            go test -race -cpu=1,4 ./internal/experiments/ -run TestCampaignWorkerCountInvariance
        ;;
    metrics-determinism) step "go test -race -cpu=1,4 (metrics determinism)" check_metrics_determinism ;;
    reuse-equivalence)
        step "go test -race -cpu=1,4 (cluster reuse equivalence)" \
            go test -race -cpu=1,4 ./internal/sim/ -run TestClusterReuseEquivalence
        ;;
    step-equivalence)
        step "go test -race -cpu=1,4 (packed/scalar step equivalence)" \
            go test -race -cpu=1,4 ./internal/core/ -run 'TestPackedScalarStepEquivalence|TestPackedScalarTraceEquivalence'
        ;;
    batched-determinism) step "go test -race -cpu=1,4 (batched campaign determinism)" check_batched_determinism ;;
    fleet-determinism) step "go test -race -cpu=1,4 (fleet determinism)" check_fleet_determinism ;;
    checkpoint-determinism) step "go test -race -cpu=1,4 (checkpoint + splitting determinism)" check_checkpoint_determinism ;;
    allocs)
        step "go test (allocation ceilings)" \
            go test ./internal/core/ ./internal/tdma/ ./internal/sim/ ./internal/fleet/ -run 'Allocs'
        ;;
    fuzz-vote)
        step "go test -fuzz (packed voting kernel, seed corpus + short fuzz)" \
            go test ./internal/core/ -run FuzzVoteAll -fuzz 'FuzzVoteAll$' -fuzztime 15s
        ;;
    fuzz-vote-batch)
        step "go test -fuzz (lane-packed voting kernel, seed corpus + short fuzz)" \
            go test ./internal/core/ -run FuzzVoteAllBatch -fuzz 'FuzzVoteAllBatch$' -fuzztime 15s
        ;;
    fuzz-restore)
        step "go test -fuzz (checkpoint decoder, seed corpus + short fuzz)" \
            go test ./internal/core/ -run FuzzRestoreProtocol -fuzz 'FuzzRestoreProtocol$' -fuzztime 15s
        ;;
    invariants)
        step "go test -tags ttdiag_invariants" \
            go test -tags ttdiag_invariants ./internal/core/... ./internal/invariant/... ./internal/cluster/... ./internal/sim/...
        ;;
    lint) step "ttdiag-lint (+ escape gate)" check_lint ;;
    *)
        echo "check.sh: unknown step \"$1\"; steps: ${STEPS[*]}" >&2
        exit 2
        ;;
    esac
}

if [ $# -eq 0 ]; then
    set -- "${STEPS[@]}"
fi
for name in "$@"; do
    run_step "$name"
done

echo
echo "== step timings =="
for t in "${timings[@]}"; do
    echo "$t"
done
if [ $# -eq ${#STEPS[@]} ]; then
    echo "All checks passed."
else
    echo "Checks passed: $*"
fi
