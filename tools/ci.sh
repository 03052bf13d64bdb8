#!/bin/sh
# CI entry point: the layering guards, build, full test suite, short
# end-to-end smokes (robustness, telemetry, exploration, KV, perf) and
# the perfbench bounds.
set -eu
cd "$(dirname "$0")/.."

# fail STAGE MESSAGE: report which stage failed, and why, then stop.
fail() {
  echo "error: [$1] $2" >&2
  exit 1
}

# The guard table: the layering the paper's design needs, as "must not
# come back" patterns. A row starts "== STAGE: WHY" (several rows may
# share a stage; WHY names what the guard keeps and its DESIGN.md
# section), then the columns
#   in     paths to scan (globs allowed)      allow  files exempted
#   grep   an extended regular expression     max    matches allowed (0)
#   eg     a line the pattern must match: proof that the guard can fire
# ci.sh itself is never scanned, so the table cannot match itself.
guards=$(cat <<'EOF'
== protection scopes: a manual structure protects only through Acquire_retire's scope, which releases on every exit (DESIGN.md §3)
  in    lib/ds/*_manual.ml
  grep  S\.(try_acquire|acquire|confirm|release) |Ar\.smr|begin_critical_section|end_critical_section|Ar\.(acquire|acquire_seen|release_slot)[ ]
  eg    match S.try_acquire s ~pid id with
== one protection path: scopes and snapshots announce through one loop, one guard mask and one kind of section (DESIGN.md §3)
  in    lib bin bench test examples
  grep  protect_unscoped|protect_seen|release_unscoped|release_held|Ar\.guard [a-z_.]+ ~pid|Ar\.(begin|end)_critical_section
  eg    let g = Ar.guard t.ar ~pid in
== one protection loop: each protection calls its named entry (fresh, reserved or the scope's own slot); no flagged acquire picks one at run time (DESIGN.md §3)
  in    lib bin bench test examples
  grep  \bacquire\b[^=]*~(reserved|own):
  eg    Ar.acquire s ~reserved:true ~own:false ~ident:slot_ident c.asp
== one chain protocol: the KV buckets run on Hm_list_rc's chain, the code the explorer races (DESIGN.md §12)
  in    lib/workload
  grep  type cursor|search_once|exception Restart
  eg    exception Restart
== one runtime per store: the store runs one RC runtime; a shard only places keys (DESIGN.md §12)
  in    lib/workload/kv_service.ml
  grep  R\.create
  max   1
  eg    let rt = R.create ~max_threads () in
== one runtime per store: every runtime makes its own heap, so no create knob shares one (DESIGN.md §12)
  in    lib/core lib/acquire_retire
  grep  [?~]heap\b
  eg    let create ?heap ~max_threads () =
== one-record control blocks: a control block is one record, disposed is its heap word's dead bit (DESIGN.md S5)
  in    lib/core
  grep  option Sched\.Atomic\.t|\bcell :|Cell\.undisposed|\bdisposed :
  eg    disposed : bool Sched.Atomic.t;
== retire obligations: the scope types the pointer life cycle, so no lint rule approximates it (DESIGN.md §3, §9)
  in    lib/lint
  grep  \bR3\b|\bR9\b|run_r3|run_r9
  eg    let run_r9 ast = []
== retire obligations: structures on Acquire_retire retire a node only under its unlink witness; the Original queue brings its own scheme (DESIGN.md §3)
  in    lib/ds/*_manual.ml
  allow lib/ds/dl_queue_manual.ml
  grep  Simheap\.free|Smr\.Deferred|\bAr\.retire[ ]
  eg    Simheap.free n.block
== retire obligations: the one unguarded read is NM-tree's over-budget fallback (DESIGN.md §3)
  in    lib bin bench test examples
  allow lib/ds/nm_tree_manual.ml lib/acquire_retire/acquire_retire.ml
  grep  get_unguarded
  eg    let n = S.get_unguarded s cell in
== one reclamation runtime: only Acquire_retire drives a scheme's reclamation API (DESIGN.md §3)
  in    lib/core lib/ds
  grep  \bS\.(retire|eject|drain_all|retired_count|abandon|reclamation_frontier|knobs|force_advance|confirm)\b
  eg    S.retire s ~pid d
== one reclamation runtime: one deferred-op queue and one eject loop (DESIGN.md §3)
  in    lib
  grep  \b(run_ejects|enqueue_all)\b|\.carry\b|\bcarry *[:=]
  eg    let run_ejects t ~pid =
== closure-free retire records: the retired and deferred-op queues thread the record's own link (DESIGN.md §2, "Retire records")
  in    lib/smr/*.ml lib/acquire_retire/*.ml
  grep  \bQueue\.
  eg    let q = Queue.create () in
== closure-free retire records: a record built from a closure is for tests and cold paths only (DESIGN.md §2, "Retire records")
  in    lib
  allow lib/explore/scenarios.ml lib/workload/perf_runner.ml
  grep  Deferred\.of_fun
  eg    Smr.Deferred.of_fun ~id ~birth f
== single harness: every timed multi-domain run goes through Workload.Harness (DESIGN.md §1)
  in    lib bin
  allow lib/workload/harness.ml
  grep  Domain\.spawn
  eg    let d = Domain.spawn work in
== single harness: no workload code swallows an exception in a catch-all handler (DESIGN.md §1)
  in    lib/workload
  grep  with _ ->[ ]
  eg    try f () with _ -> ()
== one experiment table: every cell is a row of Workload.Table; no per-figure path, prefill or kernel outside it (DESIGN.md §4)
  in    lib/workload bin bench
  allow lib/workload/table.ml
  grep  Driver\.Run|fig12_cell|stack_push_pop|figure_kernel|run_perf|let pop_push|Kv_runner|run_stalled_shard|let [a-z_]*(prefill|_kernel)\b|\.(push|enqueue|insert|put) c0
  eg    let stack_kernel c = S.push c0 1
== single JSON codec: every JSON byte is written and read by Obs.Json (DESIGN.md §7)
  in    lib bin tools
  allow lib/obs/json.ml
  grep  json_escape|parse_json|validate_jsonl_line|u%04x
  eg    let json_escape s = s
== one fault runner: only the table wraps a scheme for fault injection (DESIGN.md §4)
  in    lib/workload
  grep  Faulty_smr\.Make
  max   1
  eg    module F = Faulty_smr.Make (S)
== one fault runner: a fault row runs like any other row; the per-experiment drivers stay deleted (DESIGN.md §4)
  in    lib bin bench test
  grep  run_campaign|run_robustness_one|run_adaptivity_one|type replay
  eg    let run_robustness_one row =
== no serving-resilience layer: scheme knobs are create-time constants; nothing retunes a running scheme (DESIGN.md §5.5)
  in    lib bin bench examples
  grep  Knobs\.set_|sync_scan|batch_cap|force_advance|Breaker|Chaos_runner
  eg    Knobs.set_epoch_freq k 64
== one reclaimer: Smr.Reclaimer alone owns the retired queues, the orphan pool and their telemetry (DESIGN.md §3)
  in    lib/smr/ebr.ml lib/smr/ibr.ml lib/smr/hazard_eras.ml lib/smr/hp.ml lib/smr/ptb.ml lib/smr/leaky.ml
  grep  Retire_queue\.create|Orphanage\.create|on_retire|on_abandon
  eg    let q = Retire_queue.create () in
== telemetry off is one test: a region scheme's snapshot or load calls the scheme only to count, through the one helper that tests the telemetry flags first (DESIGN.md §7)
  in    lib/core
  grep  ignore \(S\.(try_)?acquire
  max   1
  eg    ignore (S.try_acquire ar.Ar.smr ~pid Ident.null);
== one atomic module: every protocol atomic goes through Sched.Atomic (DESIGN.md §8)
  in    lib bin bench test tools
  grep  Sched\.(Traced|Passthrough|ATOMIC)|Slot_protocol|Sticky_counter_f|Rc_cell\.Make|San_scenarios|mutation_(skip|drop_acquire)
  eg    module A = Sched.Traced
EOF
)

# guard_row check|scan: check the row itself (its columns, its example
# against its pattern, its paths), or scan the tree with it.
guard_row() {
  if [ "$1" = check ]; then
    [ -n "$in" ] && [ -n "$pat" ] && [ -n "$eg" ] && [ "$why" != "$name" ] &&
      [ "$max" -ge 0 ] 2>/dev/null || fail "$name" "a row needs a why, in, grep, eg and a count max"
    printf '%s\n' "$eg" | grep -qE -- "$pat" ||
      fail "$name" "its example does not match its pattern: $eg"
    for path in $in $allow; do
      [ -e "$path" ] || fail "$name" "no such path: $path"
    done
    return
  fi
  [ "$name" = "$stage" ] || echo "== $name =="
  stage=$name
  status=0
  # shellcheck disable=SC2086
  out=$(grep -rnoHE --exclude=ci.sh -- "$pat" $in) || status=$?
  # grep exits 2 on a missing path or a bad pattern: that fails the row.
  [ "$status" -le 1 ] || fail "$name" "grep exited $status"
  hits=$(printf '%s\n' "$out" | awk -F: -v allow=" $allow " '$0 != "" && !index(allow, " " $1 " ")')
  n=$(printf '%s' "$hits" | awk 'END { print NR }')
  if [ "$n" -gt "$max" ]; then
    printf '%s\n' "$hits" >&2
    fail "$name" "$n matches, at most $max allowed: $why"
  fi
}

guard_table() {
  name= stage=
  while read -r key value; do
    case $key in
      ==)
        [ -z "$name" ] || guard_row "$1"
        name=${value%%: *} why=${value#*: } in= pat= allow= max=0 eg= ;;
      in) in=$value ;;       allow) allow=$value ;;
      grep) pat=$value ;;    max) max=$value ;;
      eg) eg=$value ;;
      *) fail "guard table" "unknown column '$key' under '$name'" ;;
    esac
  done <<EOF
$guards
EOF
  guard_row "$1"
}

echo "== guard table self-check =="
guard_table check
# The perf gates below pick BENCH_PR<N>.json points by N.
[ "$(printf 'BENCH_PR36.json\nBENCH_PR8.json\n' | sort -V | tail -1)" = BENCH_PR36.json ] ||
  fail "perf trajectory gate" "sort -V does not order BENCH_PR<N>.json by N"
guard_table scan

echo "== no committed result artifacts =="
# Raw run output is regenerable and must not be versioned; the only
# committed perf artifacts are the BENCH_PR<N>.json trajectory points.
# Outside a git checkout there is nothing to list, so the stage fails.
[ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ] ||
  fail "no committed result artifacts" "$(pwd -P) is not the top of a git checkout"
artifacts=$(git ls-files 'results/*.jsonl' 'results/*.txt' 'results/*.json')
[ -z "$artifacts" ] ||
  fail "no committed result artifacts" "results/ holds generated artifacts: $artifacts"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== rc-lint (clean tree) =="
# Static protocol checks (DESIGN.md §9): the shipped tree must carry
# zero unsuppressed findings.
dune build @lint

# must_fail STAGE MESSAGE COMMAND...: an inverted gate; COMMAND must fail.
must_fail() {
  if (shift 2 && "$@") >/dev/null 2>&1; then fail "$1" "$2"; fi
}

echo "== behavioural gates =="
# What a grep cannot check, each under the stage it belongs to. The
# deliberately bad lint corpus guards the linter itself.
must_fail "rc-lint (fixture corpus must fail)" "rc_lint found nothing in test/lint_fixtures: rules have regressed" \
  dune exec tools/rc_lint/rc_lint.exe -- test/lint_fixtures
lint_lines=$(wc -l < lib/lint/lint.ml)
[ "$lint_lines" -lt 500 ] ||
  fail "retire obligations" "lib/lint/lint.ml has $lint_lines lines, expected under 500"
# rc-lint's retire-telemetry rule R5 went with the shared retire, its
# knob-capture rule R7 with the knob setters.
rules=$(dune exec tools/rc_lint/rc_lint.exe -- --list-rules)
if printf '%s\n' "$rules" | grep -q '^R5'; then fail "one reclaimer" "rc-lint lists R5"; fi
if printf '%s\n' "$rules" | grep -q '^R7'; then fail "no serving-resilience layer" "rc-lint lists R7"; fi
[ ! -e lib/adapt ] || fail "no serving-resilience layer" "lib/adapt is back"
grep -q 'Domain\.spawn' lib/workload/harness.ml ||
  fail "single harness" "lib/workload/harness.ml no longer spawns the workers"
# An unknown scheme name fails the command instead of shrinking it to
# an empty table.
must_fail "single harness" "fig12 accepted an unknown scheme name" \
  dune exec bin/cdrc_bench.exe -- fig12 --schemes Bogus
# The whole bench suite runs tiny and must print one line per cell: 7
# set figures x 12 schemes, fig12's 8 queues, abl-sticky's 2 counters,
# 5 epoch frequencies, 5 slot budgets, ext-stack's 11 stacks and
# obs-overhead's 2 modes x 3 repeats = 121 (DESIGN.md §4).
suite=$(BENCH_THREADS=1 BENCH_DURATION=0.02 BENCH_SCALE=100 dune exec bench/main.exe)
cells=$(echo "$suite" | grep -c ' Mops/s  ops=' || true)
[ "$cells" -eq 121 ] ||
  fail "one experiment table" "the tiny bench suite printed $cells cells, expected 121"
# A malformed environment value is a usage error (exit 2), not an
# empty suite.
status=0
BENCH_THREADS=x dune exec bench/main.exe >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] ||
  fail "one experiment table" "bench/main.exe exited $status on BENCH_THREADS=x, expected 2"

echo "== robustness smoke (EBR, 0.2s) =="
# The row's check: nothing leaks, and EBR's live blocks at the end are
# below those at abandon.
dune exec bin/cdrc_bench.exe -- robustness --duration 0.2 --schemes EBR

echo "== telemetry smoke (fig13a, scaled down) =="
# Short run with telemetry on; --check fails unless the exported trace
# is valid JSONL and the experiment's required metrics are non-zero.
dune exec bin/cdrc_bench.exe -- stats fig13a --threads 2 --duration 0.1 --scale 50 --check

echo "== schedule-exploration smoke: clean targets under exhaustive DFS =="
# Deterministic schedule exploration of the production lock-free cores
# (DESIGN.md §8), each schedule checked by the §14 race & lifetime
# monitor: exhaustive DFS must find no counterexample and no violation
# — a false positive here means the happens-before engine or the
# typestate rules regressed.
dune exec bin/cdrc_bench.exe -- explore sticky-one-death --mode dfs --preemptions 2
dune exec bin/cdrc_bench.exe -- explore sticky-load-vs-dec --mode dfs
dune exec bin/cdrc_bench.exe -- explore slots --mode dfs
dune exec bin/cdrc_bench.exe -- explore weak-upgrade --mode dfs
dune exec bin/cdrc_bench.exe -- explore handoff --mode dfs

echo "== schedule-exploration: seeded mutants caught with a replayable trace =="
# Each MUTANT target exits 0 only when the explorer catches its seeded
# bug; on top of that, the report must print the replayable schedule
# ("schedule [...]") — replay with: explore TARGET --replay TRACE.
for t in sticky-drop-help slots-skip-validate slots-drop-announce rc-extra-dec \
    handoff-retire-early racy-counter; do
  out=$(dune exec bin/cdrc_bench.exe -- explore "$t" --mode dfs)
  echo "$out"
  case $out in
    *"schedule ["*) ;;
    *) fail "schedule-exploration" "$t caught the mutant but printed no replayable schedule" ;;
  esac
done
# Pinned-seed randomized corpus: the PCT and random explorers must also
# catch the injected bugs with these exact seeds. The skip-confirm
# mutant needs three priority changes (reader, reclaimer, reader,
# reclaimer), hence depth 4.
dune exec bin/cdrc_bench.exe -- explore racy-counter --mode pct --seed 1 --iters 500
dune exec bin/cdrc_bench.exe -- explore sticky-drop-help --mode random --seed 2 --iters 2000
dune exec bin/cdrc_bench.exe -- explore slots-skip-validate --mode pct --seed 3 --depth 4 --iters 500

echo "== kv serving smoke (table rows, always validated) =="
# Short sharded-KV rows (DESIGN.md §12): after each cell the store is
# quiesced and the node/box retirement-accounting identities plus
# leak-freedom are asserted; any violation exits 1.
dune exec bin/cdrc_bench.exe -- kv --threads 2 --duration 0.1 --shards 2 \
  --schemes EBR,None --mix read95 --keys 2048

echo "== perf trajectory gate (committed points) =="
# Compare the two highest-numbered committed BENCH_PR<N>.json points.
# This comparison is deterministic (two fixed files), so it runs at the
# strict default tolerances with a documented allowlist instead of the
# wide machine-noise tolerances below:
#   - reclaim_p99 cells: the latency histogram is log2-bucketed, so a
#     one-bucket wobble between sessions reads as +100%;
#   - stack/queue/hash throughput cells at PR8: cross-session jitter
#     on the shared 1-core CI host (the structures' code is unchanged
#     in PR8; the kv-* cells are the new coverage and are gated via
#     the baseline-vs-smoke stage below once both sides carry them).
# Additions here must name the offending cell and the reason.
prev_points=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -2)
if [ "$(echo "$prev_points" | wc -l)" -eq 2 ]; then
  # shellcheck disable=SC2086
  tools/bench_check $prev_points \
    --allow 'None/stack,RCEBR/stack/1,IBR/stack/4,Hyaline/stack/4' \
    --allow 'RCHP-weak/queue/4,RCHyaline-weak/queue/4,locked-weak/queue/4' \
    --allow 'HE/hash/4,RCHyaline/hash/4,RCHE/hash/4'
fi

echo "== perf smoke (pinned matrix, P=1, short) =="
# Emit a schema-valid perf summary (DESIGN.md §11) and gate it against
# the committed baseline. The self-compare is the deterministic exit-0
# check; the baseline compare runs with tolerances wide enough for a
# 1-core CI host (absolute throughput is machine-specific — the strict
# 15/25 defaults are for trajectory points taken on one machine), so
# what it really asserts is that the cell matrix, schema and comparator
# still agree end-to-end.
dune exec bin/cdrc_bench.exe -- perf --threads 1 --duration 0.05 --keys 512 \
  --label ci-smoke --out results/BENCH_smoke.json --validate
tools/bench_check results/BENCH_smoke.json results/BENCH_smoke.json
baseline=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)
if [ -n "$baseline" ]; then
  tools/bench_check --throughput-tol 99 --latency-tol 100000 \
    "$baseline" results/BENCH_smoke.json
fi
rm -f results/BENCH_smoke.json

# The bounds table: one 3 s perfbench run per (workload, seed, trace);
# each metric must stay at or below its bound, set in the commit named. A
# row that does not parse fails before any run, a metric the run does
# not report fails the check. What each stage holds:
#   queue retention: a flush drains cascades to a fixpoint (DESIGN.md
#     S8, §3); reclaiming one node per flush retains ~33,060 blocks.
#   lean snapshots: a snapshot is one 4-word block, and a tree read
#     allocates its snapshots alone (§3).
#   flat objects: a control block is 13 words in four blocks (S1, S5),
#     a retire one 8-word record (§2, "Retire records").
#   short-lived retire records: a drained record left linked to its
#     successors would promote them too.
# Minor-word bounds are the traced seed-7 values plus ~5 % and repeat
# exactly for a seed (perfbench/test_determinism.ml); promoted words
# follow GC pacing, so those bounds are looser. A set-in commit "C+"
# names the change made on top of commit C.
bounds=$(cat <<'EOF'
# workload  seed trace metric                          bound  set-in  stage
queue-weak  1    0     rcebr_peak_blocks               4096   c1cba52 queue retention
queue-weak  1    0     rchp_peak_blocks                4096   c1cba52 queue retention
tree-read   7    1     rcebr.gc.minor_words_per_op     116.0  ed5208a+ lean snapshots
tree-read   7    1     rchp.gc.minor_words_per_op      116.0  ed5208a+ lean snapshots
queue-weak  7    1     rcebr.gc.promoted_words_per_op  14.3   ca7b0b8 flat objects
queue-weak  7    1     rchp.gc.promoted_words_per_op   16.6   ca7b0b8 flat objects
queue-weak  7    1     rcebr.gc.minor_words_per_op     61.8   f2b15d7 flat objects
queue-weak  7    1     rchp.gc.minor_words_per_op      61.8   f2b15d7 flat objects
kv-zipf     7    1     rcebr.gc.promoted_words_per_op  8.8    ca7b0b8 short-lived retire records
kv-zipf     7    1     rchp.gc.promoted_words_per_op   7.4    ca7b0b8 short-lived retire records
kv-zipf     7    1     rcebr.gc.minor_words_per_op     88.8   e3178ac short-lived retire records
kv-zipf     7    1     rchp.gc.minor_words_per_op      88.8   e3178ac short-lived retire records
EOF
)
python3 - "$bounds" <<'EOF'
import json, subprocess, sys
runs = {}
for line in sys.argv[1].splitlines():
    if line.strip() and not line.startswith("#"):
        workload, seed, trace, metric, bound, commit, stage = line.split(None, 6)
        runs.setdefault((stage, workload, seed, trace), []).append((metric, float(bound), commit))
for (stage, workload, seed, trace), rows in runs.items():
    print("== %s (perfbench %s, seed %s, trace %s, 3s) ==" % (stage, workload, seed, trace), flush=True)
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                          "--seconds", "3", "--trace", trace], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit("error: [%s] perfbench exited %d" % (stage, run.returncode))
    result = json.loads(run.stdout.splitlines()[-1])
    errors = [] if result["correct"] else ["%s returned a wrong result" % workload]
    for metric, bound, commit in rows:
        if metric not in result["metrics"]:
            errors.append("%s reports no metric %s" % (workload, metric))
            continue
        value = result["metrics"][metric]["value"]
        print("%s %s = %.1f (bound %g, set in %s)" % (workload, metric, value, bound, commit))
        if value > bound:
            errors.append("%s %s = %.1f exceeds %g" % (workload, metric, value, bound))
    if errors:
        sys.exit("\n".join("error: [%s] %s" % (stage, e) for e in errors))
EOF

echo "CI OK"
