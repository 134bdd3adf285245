#!/bin/sh
# ci.sh — the full verification gate for this repository.
#
# Every step must pass before a change lands. The cheap static gates run
# first so a trust-boundary violation fails the build in seconds, before
# any long test pass:
#
#   1. go build ./...  — everything compiles
#   2. rakis-lint      — the trust-boundary analyzers (taintflow,
#                        doublefetch, rolecheck, boundarycopy,
#                        annotations; see DESIGN.md). Exit 1 means
#                        findings, exit 2 means the tool itself failed.
#   3. analysis tests  — fixture-freshness gate: the analyzers still
#                        fire on their testdata fixtures and stay clean
#                        on the production tree
#   4. go vet          — toolchain static checks
#   5. go test ./...   — unit + integration + property tests
#   6. go test -race   — FM/ring protocol under the race detector (see
#                        race_on_test.go for why this pass is load-bearing),
#                        shuffled so test-order coupling cannot hide
#   7. fuzz smoke      — 30 s over the committed netstack seed corpus
#                        (internal/netstack/testdata/fuzz), the §5.2-style
#                        hostile-frame campaign, plus 30 s aimed at the
#                        certify-in-place view parser (FuzzInputView) and
#                        30 s at the TCP segment ingest (FuzzInputTCP,
#                        seeded with the hostile-handshake corpus)
#   8. chaos smoke     — rakis-chaos -profile smoke: every workload under
#                        fault injection (see DESIGN.md, "Chaos testing")
#   9. trace smoke     — rakis-trace: one instrumented cell per trust
#                        model; fails on any accounting violation (the
#                        telemetry conservation invariant, see DESIGN.md,
#                        "Telemetry")
#  10. batched path    — the batched-fast-path differential suite and the
#                        exit-amortization regression guard under -race:
#                        batched and scalar I/O must differ in cost only
#                        (see DESIGN.md, "Batched fast path")
#  11. zero-copy path  — the zero-copy differential suite under -race:
#                        the in-place RX/splice datapath and the legacy
#                        copying path must agree on every observable
#                        (streams, refusals, packet accounting); plus the
#                        no-waiver gate — the RX-path packages carry no
#                        //rakis:singleread-ok escape hatches, so the
#                        doublefetch analyzer's pass in step 2 covers
#                        every in-place reader (see DESIGN.md,
#                        "Zero-copy datapath")
#  12. adaptive path   — the self-tuning runtime under -race: the tuner
#                        convergence suite plus the adaptive smoke (the
#                        tuner steps under load, never leaves its safety
#                        envelope, and matches the narrow static's
#                        exits/op floor); then the faketel chaos profile —
#                        a hostile host steering the tuner's inputs must
#                        not push it out of the envelope or flap the mode
#                        (see DESIGN.md, "Self-tuning runtime")
#  13. sharded path    — the sharded data path: the demux suite under
#                        -race (widths 1..64, rebind, cross-shard port
#                        collision, bind/close/recv churn), the
#                        flow-affinity differential (affine TX vs the
#                        round-robin ablation must be stream-identical),
#                        and the shardq quarantine scenario — a host
#                        denying one queue of a four-shard world must
#                        confine refusals to that shard while every
#                        healthy shard's flows complete (see DESIGN.md,
#                        "Sharded data path")
#  14. xsk-tcp path    — the in-enclave TCP battery: the TCP shard suite
#                        under -race (concurrent accept/close/rebind at
#                        widths 1..64, cross-shard port collisions,
#                        retransmit-vs-close races, hostile-scribble
#                        refusal), the proxied-vs-XSK differential
#                        (byte-identical streams and exact refusal/ring
#                        accounting at widths 1..64, incl. completion-safe
#                        chaos profiles), the SYN-flood gate under -race
#                        (stateless cookies, bounded memory, 100% healthy
#                        delivery), and the figure gate (zero steady-state
#                        exits at ≥1.5x proxied throughput; see DESIGN.md,
#                        "In-enclave TCP")
#  15. microbenchmarks — smoke run of the host file path benchmarks
#                        (BenchmarkInodeAppend, BenchmarkUringFileOp), so
#                        they keep compiling and running
#  16. bench JSON      — rakis-bench -json: the Figure 2 rows plus the
#                        batched-vs-scalar, zero-copy, adaptive, shards,
#                        and tcp rows in the stable rakis-bench/v1 layout
#                        (BENCH_figs.json)
set -eu
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> rakis-lint ./..."
go run ./cmd/rakis-lint ./...

echo "==> go test ./internal/analysis/... (fixture freshness)"
go test ./internal/analysis/...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race -shuffle=on ./internal/..."
go test -race -shuffle=on ./internal/...

echo "==> go test -fuzz=FuzzStackInput -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzStackInput$' -fuzztime=30s ./internal/netstack

echo "==> go test -fuzz=FuzzInputView -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzInputView$' -fuzztime=30s ./internal/netstack

# -fuzzminimizetime is capped: the default burns 60 s minimizing every
# new interesting input, which can eat the whole fuzz budget.
echo "==> go test -fuzz=FuzzInputTCP -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzInputTCP$' -fuzztime=30s -fuzzminimizetime=10x ./internal/netstack

echo "==> rakis-chaos -profile smoke"
go run ./cmd/rakis-chaos -profile smoke

echo "==> rakis-trace smoke (conservation gate)"
go run ./cmd/rakis-trace -workload iperf -env rakis-sgx > /dev/null
go run ./cmd/rakis-trace -workload fstime -env gramine-sgx > /dev/null

echo "==> batched fast path: differential + exit-amortization guard (-race)"
go test -race -run 'TestBatchDifferential|TestBatchExitAmortization' ./internal/experiments/

echo "==> zero-copy path: differential suite (-race) + no-waiver gate"
go test -race -run 'TestZerocopyDifferential|TestZerocopyProxySplice' ./internal/experiments/
if grep -rn 'rakis:singleread-ok' --include='*.go' \
    internal/mem internal/umem internal/xsk internal/netstack internal/fm internal/sm; then
	echo "ci: unexpected //rakis:singleread-ok waiver on the RX path" >&2
	exit 1
fi

echo "==> self-tuning runtime: tuner convergence + adaptive smoke (-race)"
go test -race ./internal/tuner/
go test -race -run 'TestAdaptiveSmoke' ./internal/experiments/

echo "==> rakis-chaos -profile faketel (tuner safety under a hostile host)"
go run ./cmd/rakis-chaos -profile faketel

echo "==> sharded data path: demux (-race) + affinity differential + quarantine"
go test -race -run 'TestShard' ./internal/netstack/
go test -race -run 'TestShardAffinityDifferential' ./internal/experiments/
go test -run 'TestShardQuarantine' ./internal/chaos/harness/

echo "==> in-enclave TCP: shard suite (-race) + differential + synflood gate (-race) + figure gate"
go test -race -run 'TestTCPShard|TestTCPViewScribble' ./internal/netstack/
go test -run 'TestTCPDifferential' ./internal/experiments/
go test -race -run 'TestSynFlood' ./internal/chaos/harness/
go test -run 'TestTCPFigureGate' ./internal/experiments/

echo "==> host file path microbenchmarks (smoke)"
go test -run '^$' -bench 'InodeAppend|UringFileOp' -benchtime 100x ./internal/hostos

echo "==> rakis-bench -fig 2,batch,zerocopy,adaptive,shards,tcp -json BENCH_figs.json"
go run ./cmd/rakis-bench -fig 2,batch,zerocopy,adaptive,shards,tcp -scale 0.05 -json BENCH_figs.json > /dev/null
test -s BENCH_figs.json
grep -q '"figure": "batch"' BENCH_figs.json
grep -q '"figure": "zerocopy"' BENCH_figs.json
grep -q '"figure": "adaptive"' BENCH_figs.json
grep -q '"figure": "shards"' BENCH_figs.json
grep -q '"figure": "tcp"' BENCH_figs.json

echo "ci: all checks passed"
