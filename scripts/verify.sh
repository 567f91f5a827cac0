#!/usr/bin/env bash
# Repo verification: formatting, lints, tier-1 build+test, full workspace.
#
# Everything here runs offline (no registry access). The proptest suites
# and criterion benches are feature-gated (`slow-tests`,
# `criterion-benches`) and need their dev-dependencies restored in the
# manifests first — they are not part of this gate. Exception:
# co-service's `slow-tests` feature pulls no dependencies, so its soak
# test runs here.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
# Tier-1 (ROADMAP.md): the gate every change must keep green.
run cargo build --release
run cargo test -q
# The full workspace: every crate's unit + integration tests.
run cargo test --workspace -q
# Fault-injection hardening suite (DESIGN.md §10): kernel panics, injected
# slowness, and padded replies against a real TCP server. This also runs
# the persistence suite's fault-armed half (snapshot fsync failures and
# crash-between-temp-and-rename, DESIGN.md §11).
run cargo test -q -p co-service --features fault-inject
# Durability & recovery (DESIGN.md §11): snapshot save → load → identical
# verdicts, quarantine of corrupt/stale snapshots, TCP restart drill.
run cargo test -q -p co-service --test persistence
# Depth-hardened parsers (DESIGN.md §11.4): 100k-deep hostile input must
# answer a structured TOODEEP error at every boundary — all three parser
# crates and the TCP path.
run cargo test -q -p co-lang depth
run cargo test -q -p co-cq depth
run cargo test -q -p co-object hostile_depth
run cargo test -q -p co-service --test robustness hostile_nesting
# Decision-kernel perf harness (DESIGN.md §9, §14): smoke-run it with 2
# kernel threads, validate the smoke report, and strict-check both
# committed baselines (≥5× floors + 100% verdict agreement on v1; v2 adds
# the adaptive small-instance floor, the hard_emptiness parallel floor,
# and the mixed-load p99 gate).
run cargo run -p co-bench --release --bin co-bench -- perf --quick --threads 2 --out target/bench-smoke.json
run cargo run -p co-bench --release --bin co-bench -- check target/bench-smoke.json
run cargo run -p co-bench --release --bin co-bench -- check BENCH_PR2.json --strict
run cargo run -p co-bench --release --bin co-bench -- check BENCH_PR7.json --strict
# v2 union baseline (DESIGN.md §17): the E-series union_heavy workload's
# first-disjunct short-circuit must stay ≥5× faster than a last-disjunct
# hit, on every machine (the floor is not thread-gated).
run cargo run -p co-bench --release --bin co-bench -- check BENCH_PR10.json --strict
# Observability gate (DESIGN.md §12): the deterministic kernel
# conformance suite — under the default test harness AND serialized
# (parallel kernels must not depend on test-runner threading) — the
# seeded soak test (std-only despite the feature gate), and a live
# double-scrape of METRICS under load — the exposition must parse and
# every counter must be monotone non-decreasing.
run cargo test -q --test conformance
run env RUST_TEST_THREADS=1 cargo test -q --test conformance
run cargo test -q -p co-service --features slow-tests --test soak
# Certified-verdict oracle (DESIGN.md §15): 200 seeded random query pairs
# through every candidate strategy × {1,2} kernel threads, both directions;
# every verdict must carry a certificate the independent co-cert checker
# accepts (wire round-trip included). Zero rejections tolerated.
run env CERT_ORACLE_PAIRS=200 cargo test -q --release --test cert_oracle
# UCQ differential wall (DESIGN.md §17): 200 seeded union pairs decided
# three independent ways — the per-disjunct engine, a naive
# union-expansion reference, and UCHECK against live 1- and 2-thread
# servers — with 100% verdict agreement across every candidate strategy
# × kernel-thread configuration, both polarities required.
run env UCQ_DIFFERENTIAL_PAIRS=200 cargo test -q --release --test ucq_differential
# Union canonicalization properties (slow-tests is std-only, like soak):
# permutation, duplication, and α-renaming never change the union
# fingerprint; a subsumed disjunct never changes the verdict.
run cargo test -q -p co-service --features slow-tests --test union_properties

echo "==> live METRICS scrape (parseable exposition, monotone counters)"
./target/release/coqld --listen 127.0.0.1:0 --kernel-threads 2 >target/coqld-verify.log 2>&1 &
COQLD_PID=$!
trap 'kill "$COQLD_PID" 2>/dev/null || true' EXIT
ADDR=
for _ in $(seq 50); do
    ADDR=$(sed -n 's/^coqld: listening on //p' target/coqld-verify.log)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "coqld did not announce its address"; exit 1; }
HOST=${ADDR%:*} PORT=${ADDR##*:}

# One connection per call: send the given request lines, print the reply.
req() {
    exec 9<>"/dev/tcp/$HOST/$PORT"
    printf '%s\n' "$@" QUIT >&9
    cat <&9
    exec 9<&- 9>&-
}

# Validate one exposition and emit its counter series as "series value"
# (gauges move both ways and are exempt from the monotonicity check).
counters_of() {
    awk '
        /^# TYPE / { if ($4 == "counter") counter[$3] = 1; next }
        /^#/ || /^OK bye$/ || NF == 0 { next }
        {
            value = $NF
            series = $0; sub(/ [^ ]*$/, "", series)
            name = series; sub(/\{.*/, "", name)
            if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) {
                print "unparseable metric name: " $0 > "/dev/stderr"; exit 1
            }
            if (value !~ /^-?[0-9]+(\.[0-9]+)?$/) {
                print "unparseable sample value: " $0 > "/dev/stderr"; exit 1
            }
            if (name in counter) print series, value
        }' "$1"
}

req "SCHEMA app R(A, B); S(C)" >/dev/null
req METRICS >target/metrics-1.txt
grep -q '^# EOF$' target/metrics-1.txt || { echo "scrape 1 missing # EOF"; exit 1; }
# A many-children pair whose §5 emptiness split has 2^6 = 64 patterns:
# past the parallel threshold, so the 2-thread server must engage the
# work-stealing pattern kernel and bump the parallel counters.
HARD_SUBS=$(for i in 0 1 2 3 4 5; do
    printf ', g%d: (select y%d.C from y%d in S where y%d.C = x.A and y%d.C = 1)' \
        "$i" "$i" "$i" "$i" "$i"
done)
HARD_Q1="select [a: x.A$HARD_SUBS] from x in R"
HARD_Q2=$(printf '%s' "$HARD_Q1" | sed 's/ and y[0-9]*\.C = 1//g')
req "CHECK app select x.B from x in R ;; select x.B from x in R" \
    "CHECK app $HARD_Q1 ;; $HARD_Q2" \
    "EXPLAIN CHECK app select x.A from x in R where x.B = 1 ;; select y.A from y in R" \
    "EQUIV app select y.C from y in S ;; select z.C from z in S" >/dev/null
req "EXPLAIN CHECK app $HARD_Q1 ;; $HARD_Q2" >target/explain-hard.txt
grep -q '^explain\.kernel\.threads_used ' target/explain-hard.txt \
    || { echo "EXPLAIN missing explain.kernel.threads_used"; exit 1; }
# Certified-verdict drill (DESIGN.md §15): mixed CERT CHECK / CERT EQUIV
# against the live 2-kernel-thread server. coqlc re-checks every returned
# certificate with the independent co-cert checker against locally parsed
# queries (exit 6 on any failure — pipefail surfaces it). Round 2 answers
# from the cert-carrying memo cache, which the server re-verifies first.
printf 'R(A, B)\nS(C)\n' >target/cert-schema.txt
printf 'select x.B from x in R where x.A = 1\n' >target/cert-q-narrow.txt
printf 'select y.B from y in R\n' >target/cert-q-wide.txt
printf 'select [a: x.A, g: (select y.C from y in S where y.C = x.B)] from x in R\n' \
    >target/cert-q-nested.txt
for round in 1 2; do
    ./target/release/coqlc cert --addr "$ADDR" \
        target/cert-schema.txt target/cert-q-narrow.txt target/cert-q-wide.txt \
        | grep '^OK holds=true' >/dev/null \
        || { echo "CERT CHECK drill (positive, round $round) failed"; exit 1; }
    ./target/release/coqlc cert --addr "$ADDR" \
        target/cert-schema.txt target/cert-q-wide.txt target/cert-q-narrow.txt \
        | grep '^OK holds=false' >/dev/null \
        || { echo "CERT CHECK drill (negative, round $round) failed"; exit 1; }
    ./target/release/coqlc cert --equiv --addr "$ADDR" \
        target/cert-schema.txt target/cert-q-nested.txt target/cert-q-nested.txt \
        | grep '^OK .*forward=true backward=true' >/dev/null \
        || { echo "CERT EQUIV drill (round $round) failed"; exit 1; }
done

# UCQ drill (DESIGN.md §17): union verbs against the same 2-thread
# server. A seeded union workload (3 disjuncts per side) goes through
# UCHECK twice — the second pass must answer entirely from the
# union-fingerprint memo — then `coqlc cert` proves a UCHECK verdict by
# re-checking the server's COUNION1 block locally (exit 6 on any lie).
./target/release/co-bench workload --total 30 --distinct 6 --union-k 3 --seed 17 \
    >target/ucq-workload.txt
sed 's/^/UCHECK app /' target/ucq-workload.txt >target/ucq-requests.txt
mapfile -t UREQUESTS <target/ucq-requests.txt
req "${UREQUESTS[@]}" | awk '/^(OK|ERR)/ && !/^OK bye$/' >target/ucq-verdicts-1.txt
[ "$(wc -l <target/ucq-verdicts-1.txt)" -eq 30 ] \
    || { echo "UCHECK drill answered $(wc -l <target/ucq-verdicts-1.txt)/30"; exit 1; }
grep -q '^OK holds=true' target/ucq-verdicts-1.txt \
    && grep -q '^OK holds=false' target/ucq-verdicts-1.txt \
    || { echo "UCHECK drill never exercised both polarities"; exit 1; }
if grep -q '^ERR' target/ucq-verdicts-1.txt; then
    echo "UCHECK drill answered errors"; exit 1
fi
req "${UREQUESTS[@]}" | awk '/^OK holds=/' >target/ucq-verdicts-2.txt
awk '{print $1, $2}' target/ucq-verdicts-1.txt >target/ucq-cmp-1.txt
awk '{print $1, $2}' target/ucq-verdicts-2.txt >target/ucq-cmp-2.txt
cmp -s target/ucq-cmp-1.txt target/ucq-cmp-2.txt \
    || { echo "UCHECK memo pass diverged from the cold pass"; exit 1; }
grep -q 'cached=true' target/ucq-verdicts-2.txt \
    || { echo "UCHECK repeat never hit the union memo"; exit 1; }
req "UEQUIV app select x.B from x in R or select y.B from y in R where y.A = 1 ;; select z.B from z in R" \
    | grep -q '^OK equivalent=true forward=true backward=true' \
    || { echo "UEQUIV drill failed"; exit 1; }
req "AGG q(X) :- R(X,Y). | count(Y) ;; q(X) :- R(X,Z). | count(Z)" \
    | grep -q '^OK forward=true backward=true' \
    || { echo "AGG drill failed"; exit 1; }
req "NEST app R ; nest B as G ; unnest G ;; R" \
    | grep -q '^OK equivalent=' \
    || { echo "NEST drill failed"; exit 1; }
printf 'select x.B from x in R where x.A = 1 or select y.B from y in R where y.A = 2\n' \
    >target/cert-u-narrow.txt
printf 'select z.B from z in R where z.A = 2 or select w.B from w in R\n' \
    >target/cert-u-wide.txt
for round in 1 2; do
    ./target/release/coqlc cert --addr "$ADDR" \
        target/cert-schema.txt target/cert-u-narrow.txt target/cert-u-wide.txt \
        | grep 'certified by local co-cert re-check' >/dev/null \
        || { echo "CERT UCHECK drill (positive, round $round) failed"; exit 1; }
    ./target/release/coqlc cert --addr "$ADDR" \
        target/cert-schema.txt target/cert-u-wide.txt target/cert-u-narrow.txt \
        | grep '^OK holds=false' >/dev/null \
        || { echo "CERT UCHECK drill (negative, round $round) failed"; exit 1; }
done

req METRICS >target/metrics-2.txt
grep -q '^# EOF$' target/metrics-2.txt || { echo "scrape 2 missing # EOF"; exit 1; }
kill "$COQLD_PID" 2>/dev/null || true
counters_of target/metrics-1.txt >target/counters-1.txt
counters_of target/metrics-2.txt >target/counters-2.txt
awk '
    NR == FNR { before[$1] = $2; next }
    { after[$1] = $2 }
    END {
        if (FNR == 0 || NR == FNR) { print "empty scrape"; exit 1 }
        for (s in before) {
            if (!(s in after)) { print "counter disappeared: " s; exit 1 }
            if (after[s] + 0 < before[s] + 0) {
                print "counter went backwards: " s " " before[s] " -> " after[s]
                exit 1
            }
        }
    }' target/counters-1.txt target/counters-2.txt
grep -q '^coqld_kernel_' target/counters-2.txt || { echo "no kernel counters exposed"; exit 1; }
# Parallel-kernel counters (DESIGN.md §14): both families must be present
# in both scrapes (monotonicity is covered by the awk above), and the hard
# 64-pattern CHECK between the scrapes must have taken the parallel path.
for family in coqld_kernel_steals_total coqld_kernel_parallel_branches_total; do
    grep -q "^$family " target/counters-1.txt && grep -q "^$family " target/counters-2.txt \
        || { echo "missing parallel kernel counter: $family"; exit 1; }
done
PB1=$(awk '$1 == "coqld_kernel_parallel_branches_total" {print $2}' target/counters-1.txt)
PB2=$(awk '$1 == "coqld_kernel_parallel_branches_total" {print $2}' target/counters-2.txt)
[ "${PB2:-0}" -gt "${PB1:-0}" ] \
    || { echo "hard CHECK did not engage parallel kernels: branches $PB1 -> $PB2"; exit 1; }

# ---------------------------------------------------------------------------
# Fleet drill (DESIGN.md §13): 3 coqld shards behind coqld-router, driven by
# a duplicate-heavy seeded workload. Asserts: 100% verdict agreement with a
# cold single-process oracle, ≥90% of repeated fingerprints answered by a
# same-shard cache hit (affinity), a parseable + monotone aggregated METRICS
# exposition, a warm HANDOFF join, and zero wrong verdicts while a shard is
# killed mid-load (sheds/retries only).
echo "==> fleet drill (3 shards + router + oracle)"
FLEET_PIDS=
trap 'kill $FLEET_PIDS "$COQLD_PID" 2>/dev/null || true' EXIT
announced_addr() { # <logfile> <announce-prefix>: wait for the boot line
    local log=$1 prefix=$2 addr=
    for _ in $(seq 50); do
        addr=$(sed -n "s/^$prefix\([^ ]*\).*/\1/p" "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "no address announced in $log" >&2; return 1; }
    echo "$addr"
}

./target/release/coqld --listen 127.0.0.1:0 --allow-handoff >target/fleet-s1.log 2>&1 &
FLEET_PIDS="$FLEET_PIDS $!"
./target/release/coqld --listen 127.0.0.1:0 --allow-handoff >target/fleet-s2.log 2>&1 &
S2_PID=$!
FLEET_PIDS="$FLEET_PIDS $S2_PID"
./target/release/coqld --listen 127.0.0.1:0 --allow-handoff >target/fleet-s3.log 2>&1 &
FLEET_PIDS="$FLEET_PIDS $!"
./target/release/coqld --listen 127.0.0.1:0 >target/fleet-oracle.log 2>&1 &
FLEET_PIDS="$FLEET_PIDS $!"
S1=$(announced_addr target/fleet-s1.log 'coqld: listening on ')
S2=$(announced_addr target/fleet-s2.log 'coqld: listening on ')
S3=$(announced_addr target/fleet-s3.log 'coqld: listening on ')
ORACLE=$(announced_addr target/fleet-oracle.log 'coqld: listening on ')
./target/release/coqld-router --listen 127.0.0.1:0 \
    --shard "$S1" --shard "$S2" --shard "$S3" \
    --probe-interval-ms 200 --down-after 2 --retries 3 \
    >target/fleet-router.log 2>&1 &
FLEET_PIDS="$FLEET_PIDS $!"
ROUTER=$(announced_addr target/fleet-router.log 'coqld-router: listening on ')

req_at() { # <host:port> <request lines...>: one connection, replies on stdout
    local hp=$1; shift
    exec 9<>"/dev/tcp/${hp%:*}/${hp##*:}"
    printf '%s\n' "$@" QUIT >&9
    cat <&9
    exec 9<&- 9>&-
}

# Schema through the router: must fan out to all three shards.
req_at "$ROUTER" "SCHEMA app R(A, B); S(C)" | grep -q 'shards=3/3' \
    || { echo "schema broadcast did not reach 3/3 shards"; exit 1; }
req_at "$ORACLE" "SCHEMA app R(A, B); S(C)" >/dev/null

# Seeded duplicate-heavy workload: 120 requests over 10 semantic pairs,
# plus 20 reversed directions so agreement also covers holds=false.
./target/release/co-bench workload --total 120 --distinct 10 --seed 13 \
    >target/fleet-workload.txt
sed 's/^/CHECK app /' target/fleet-workload.txt >target/fleet-requests.txt
head -n 20 target/fleet-workload.txt \
    | awk -F' ;; ' '{print "CHECK app " $2 " ;; " $1}' >>target/fleet-requests.txt

# Phase 1: full workload through the router and the cold oracle; compare
# verdicts only ("OK holds=x" — cache/fp fields legitimately differ).
mapfile -t REQUESTS <target/fleet-requests.txt
verdicts() { awk '/^(OK|ERR)/ && !/^OK bye$/ {print $1, $2}'; }
req_at "$ROUTER" "${REQUESTS[@]}" | verdicts >target/fleet-router-verdicts.txt
req_at "$ORACLE" "${REQUESTS[@]}" | verdicts >target/fleet-oracle-verdicts.txt
[ "$(wc -l <target/fleet-router-verdicts.txt)" -eq 140 ] \
    || { echo "router answered $(wc -l <target/fleet-router-verdicts.txt)/140 requests"; exit 1; }
cmp -s target/fleet-router-verdicts.txt target/fleet-oracle-verdicts.txt \
    || { echo "router verdicts diverge from the oracle"; \
         diff target/fleet-router-verdicts.txt target/fleet-oracle-verdicts.txt | head; exit 1; }
if grep -q '^ERR' target/fleet-router-verdicts.txt; then
    echo "router answered errors on a healthy fleet"; exit 1
fi
grep -q '^OK holds=true' target/fleet-router-verdicts.txt \
    && grep -q '^OK holds=false' target/fleet-router-verdicts.txt \
    || { echo "agreement never exercised both verdicts"; exit 1; }

# Phase 2: aggregated METRICS — parseable, affine, monotone.
req_at "$ROUTER" METRICS >target/fleet-metrics-1.txt
grep -q '^# EOF$' target/fleet-metrics-1.txt || { echo "fleet scrape missing # EOF"; exit 1; }
counters_of target/fleet-metrics-1.txt >target/fleet-counters-1.txt
# Affinity: 120 requests over 10 distinct pairs leave 110 duplicates; with
# consistent-hash routing ≥90% of them (≥99) must be same-shard cache hits.
HITS=$(awk '/^coqld_cache_hits_total\{shard=/ { sum += $NF } END { print sum + 0 }' \
    target/fleet-metrics-1.txt)
[ "$HITS" -ge 99 ] || { echo "cache affinity too weak: $HITS/110 duplicate hits"; exit 1; }
req_at "$ROUTER" "${REQUESTS[@]}" >/dev/null
req_at "$ROUTER" METRICS >target/fleet-metrics-2.txt
counters_of target/fleet-metrics-2.txt >target/fleet-counters-2.txt
awk '
    NR == FNR { before[$1] = $2; next }
    { after[$1] = $2 }
    END {
        if (FNR == 0 || NR == FNR) { print "empty fleet scrape"; exit 1 }
        for (s in before) {
            if (!(s in after)) { print "fleet counter disappeared: " s; exit 1 }
            if (after[s] + 0 < before[s] + 0) {
                print "fleet counter went backwards: " s " " before[s] " -> " after[s]
                exit 1
            }
        }
    }' target/fleet-counters-1.txt target/fleet-counters-2.txt
grep -q '^router_routed_total ' target/fleet-counters-2.txt \
    || { echo "router families missing from the aggregated exposition"; exit 1; }

# Phase 3: warm handoff — a fourth shard joins and receives the cache.
./target/release/coqld --listen 127.0.0.1:0 --allow-handoff >target/fleet-s4.log 2>&1 &
FLEET_PIDS="$FLEET_PIDS $!"
S4=$(announced_addr target/fleet-s4.log 'coqld: listening on ')
req_at "$ROUTER" "HANDOFF $S4" >target/fleet-handoff.txt
grep -q '^OK handoff ' target/fleet-handoff.txt \
    || { echo "handoff failed: $(cat target/fleet-handoff.txt)"; exit 1; }
grep -Eq 'imported=[1-9]' target/fleet-handoff.txt \
    || { echo "handoff imported nothing: $(cat target/fleet-handoff.txt)"; exit 1; }

# Phase 4: kill one shard mid-load. Every request must still come back
# with the oracle's verdict — sheds and internal retries are fine, wrong
# verdicts or unrecovered failures are not. coqlc's retry/backoff and
# structured exit codes (4 connect, 5 overloaded) do the client's part.
kill "$S2_PID" 2>/dev/null || true
head -n 40 target/fleet-requests.txt | while IFS= read -r line; do
    GOT=$(./target/release/coqlc remote --retries 3 "$ROUTER" "$line" \
        | awk 'NR == 1 {print $1, $2}') \
        || { echo "request failed after shard kill: $line"; exit 1; }
    WANT=$(req_at "$ORACLE" "$line" | verdicts | head -n1)
    [ -n "$GOT" ] && [ "$GOT" = "$WANT" ] \
        || { echo "wrong verdict after shard kill: got '$GOT' want '$WANT'"; exit 1; }
done
DOWN=
for _ in $(seq 50); do # probes need a couple of 200ms rounds to notice
    if req_at "$ROUTER" SHARDS | grep -q "^$S2 up=false"; then DOWN=1; break; fi
    sleep 0.1
done
[ -n "$DOWN" ] || { echo "killed shard not marked down in SHARDS"; exit 1; }

kill $FLEET_PIDS 2>/dev/null || true

# ---------------------------------------------------------------------------
# Chaos drill (DESIGN.md §16): a replicated fleet (3 shards, --replication 2,
# hedging, circuit breakers) under real faults. One shard replies through
# armed fault hooks (drop-mid-reply + stalls), another is SIGKILLed mid-load
# and later restarted on the same port. Gates: 100% verdict agreement with a
# cold oracle on every answered request (UNAVAILABLE excluded), ≥99% of the
# 300 mixed CHECK/EQUIV/CERT requests answered, the killed shard's breaker
# cycle (open → half_open → close) visible in the aggregated METRICS, and
# hedges within the configured rate cap.
echo "==> chaos drill (replicated fleet under faults, kill + restart)"
# Fault hooks stay out of the tier-1 binaries: build an armed coqld into its
# own target dir (cached across runs) for the flaky shard only.
run cargo build --release -p coql-containment --features fault-inject \
    --bin coqld --target-dir target/chaos
# The chaos suite proper (router + in-process shards with armed faults),
# plus the rest of the router suite with the reply hooks compiled into the
# front end the router shares with coqld.
run cargo test -q -p co-router --features fault-inject

CHAOS_PIDS=
trap 'kill $CHAOS_PIDS $FLEET_PIDS "$COQLD_PID" 2>/dev/null || true' EXIT
./target/release/coqld --listen 127.0.0.1:0 >target/chaos-c1.log 2>&1 &
CHAOS_PIDS="$CHAOS_PIDS $!"
./target/release/coqld --listen 127.0.0.1:0 >target/chaos-c2.log 2>&1 &
C2_PID=$!
CHAOS_PIDS="$CHAOS_PIDS $C2_PID"
# The flaky shard: every 9th reply truncated mid-write, every 7th stalled.
COQLD_FAULTS='drop=9,stall=7:300' ./target/chaos/release/coqld --listen 127.0.0.1:0 \
    >target/chaos-c3.log 2>&1 &
CHAOS_PIDS="$CHAOS_PIDS $!"
./target/release/coqld --listen 127.0.0.1:0 >target/chaos-oracle.log 2>&1 &
CHAOS_PIDS="$CHAOS_PIDS $!"
C1=$(announced_addr target/chaos-c1.log 'coqld: listening on ')
C2=$(announced_addr target/chaos-c2.log 'coqld: listening on ')
C3=$(announced_addr target/chaos-c3.log 'coqld: listening on ')
CORACLE=$(announced_addr target/chaos-oracle.log 'coqld: listening on ')
./target/release/coqld-router --listen 127.0.0.1:0 \
    --shard "$C1" --shard "$C2" --shard "$C3" \
    --replication 2 --hedge-after-ms 150 --hedge-cap-permille 200 \
    --probe-interval-ms 200 --down-after 2 --retries 3 \
    --breaker-open-ms 400 --breaker-max-open-ms 2000 \
    >target/chaos-router.log 2>&1 &
CHAOS_PIDS="$CHAOS_PIDS $!"
CROUTER=$(announced_addr target/chaos-router.log 'coqld-router: listening on ')

req_at "$CROUTER" "SCHEMA app R(A, B); S(C)" | grep -q 'shards=3/3' \
    || { echo "chaos: schema broadcast did not reach 3/3 shards"; exit 1; }
req_at "$CORACLE" "SCHEMA app R(A, B); S(C)" >/dev/null

# 300 mixed requests over 25 semantic pairs: CHECK, EQUIV, and CERT CHECK
# round-robin (certificate blocks never start with OK/ERR, so the verdict
# filter stays exact).
./target/release/co-bench workload --total 300 --distinct 25 --seed 29 \
    | awk '{ v = NR % 3
             if (v == 1) print "CHECK app " $0
             else if (v == 2) print "EQUIV app " $0
             else print "CERT CHECK app " $0 }' >target/chaos-requests.txt
mapfile -t CREQUESTS <target/chaos-requests.txt
req_at "$CORACLE" "${CREQUESTS[@]}" | verdicts >target/chaos-oracle-verdicts.txt

# Batch 1 (healthy fleet) → SIGKILL one clean shard → batch 2 (degraded)
# → restart it on the same port → wait for its breaker to reclose →
# batch 3 (recovered).
req_at "$CROUTER" "${CREQUESTS[@]:0:100}" | verdicts >target/chaos-router-verdicts.txt
kill -9 "$C2_PID" 2>/dev/null || true
req_at "$CROUTER" "${CREQUESTS[@]:100:100}" | verdicts >>target/chaos-router-verdicts.txt
./target/release/coqld --listen "$C2" >target/chaos-c2-revived.log 2>&1 &
CHAOS_PIDS="$CHAOS_PIDS $!"
RECLOSED=
for _ in $(seq 150); do # open backoff doubles up to 2s before the trial
    if req_at "$CROUTER" SHARDS | grep -q "^$C2 up=true state=closed"; then
        RECLOSED=1; break
    fi
    sleep 0.1
done
[ -n "$RECLOSED" ] || { echo "chaos: restarted shard never reclosed its breaker"; exit 1; }
req_at "$CROUTER" "${CREQUESTS[@]:200:100}" | verdicts >>target/chaos-router-verdicts.txt

# Gate 1: every request came back (one verdict line each), ≥99% answered
# (at most 3 UNAVAILABLE sheds), and every answered verdict agrees with
# the cold oracle.
[ "$(wc -l <target/chaos-router-verdicts.txt)" -eq 300 ] \
    || { echo "chaos: router answered $(wc -l <target/chaos-router-verdicts.txt)/300"; exit 1; }
paste -d'|' target/chaos-router-verdicts.txt target/chaos-oracle-verdicts.txt | awk -F'|' '
    $1 ~ /UNAVAILABLE/ { skipped++; next }
    $1 != $2 { print "chaos: wrong verdict: got \"" $1 "\" want \"" $2 "\""; bad = 1 }
    END {
        if (skipped + 0 > 3) { print "chaos: " skipped " requests unanswered (>1%)"; exit 1 }
        exit bad
    }'

# Gate 2: the killed shard walked the full breaker cycle, visibly.
req_at "$CROUTER" METRICS >target/chaos-metrics.txt
grep -q '^# EOF$' target/chaos-metrics.txt || { echo "chaos scrape missing # EOF"; exit 1; }
counters_of target/chaos-metrics.txt >/dev/null # exposition stays parseable
for transition in open half_open close; do
    grep -Eq "^router_breaker_transitions_total\{shard=\"$C2\",transition=\"$transition\"\} [1-9]" \
        target/chaos-metrics.txt \
        || { echo "chaos: breaker never logged '$transition' for the killed shard"; exit 1; }
done

# Gate 3: stalls made the router hedge, and the rate cap held:
# hedges·1000 ≤ decisions·cap‰ + burst·1000.
read -r HEDGES DECISIONS <<EOF2
$(awk '$1 == "router_hedges_total" { h = $2 }
       $1 == "router_decision_requests_total" { d = $2 }
       END { print h + 0, d + 0 }' target/chaos-metrics.txt)
EOF2
[ "$HEDGES" -ge 1 ] || { echo "chaos: stalled shard never triggered a hedge"; exit 1; }
[ $((HEDGES * 1000)) -le $((DECISIONS * 200 + 4000)) ] \
    || { echo "chaos: hedge cap violated: $HEDGES hedges for $DECISIONS decisions"; exit 1; }

kill $CHAOS_PIDS 2>/dev/null || true

# ---------------------------------------------------------------------------
# Wire-path benchmark (wirebench/NOTES.md): its self-tests pin the reply
# framing and the EXPLAIN/STATS/cert-block parsers the benchmark reads, and
# a short union_cert run through coqld-router exits 1 on any verdict that
# disagrees with the co-cert-confirmed oracle.
echo "==> wirebench self-tests and union_cert smoke run"
run cargo test --release --manifest-path wirebench/Cargo.toml
run bash wirebench/run.sh --workload union_cert --seed 3 --seconds 7 --trace 0
echo "==> verify OK"
