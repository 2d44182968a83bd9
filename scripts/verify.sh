#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md).
#
# The workspace is hermetic: every dependency is an in-tree path crate,
# so --offline both works and *enforces* that no crates.io dependency
# sneaks back in — a registry fetch attempt fails the build outright.
set -eu
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test -q --workspace --offline
# --all-targets lints tests, benches and examples too, including every
# `impl_json!` expansion in them.
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check
# Rustdoc must build without warnings: a broken or private intra-doc
# link in the public API docs fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# perfbench is a workspace of its own (it builds the crates by path), so
# the workspace commands above never compile it: test it here so a
# public-API change that breaks the benchmark fails the gate.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Report-pipeline smoke: two same-seed traced mini-runs must diff clean,
# summarize as JSON, and render into a non-empty self-contained report.
# The runs go through the binary path of every experiment that measures
# through the profiling probe (`icm_core::probe`): the Fig. 2 co-runner
# score, Fig. 3 curves, the Fig. 4 policy study, Table 3 profiling costs,
# the EC2 curves of Fig. 12, the Table 4 and Fig. 8 bubble scores of one
# reporter calibration, the A4 joint-score inversion and the ext-phases
# settings of the shared §3.3 draw. Those experiments do not trace their
# probes yet, so each trace holds only the ids' `experiment.begin`/`.end`
# pairs (18 events): the diff proves the span path, not the measurements
# (ROADMAP item 4).
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT

# Flips one bit (0x20) of the byte in the middle of file $1, in place.
flip_middle_byte() {
    MID=$(($(wc -c < "$1") / 2))
    BYTE=$(od -An -tu1 -j "$MID" -N1 "$1" | tr -d ' ')
    # shellcheck disable=SC2059 # the format is the flipped byte, in octal
    printf "\\$(printf '%03o' $((BYTE ^ 32)))" \
        | dd of="$1" bs=1 seek="$MID" conv=notrunc 2> /dev/null
}
./target/release/icm-experiments fig2 fig3 fig4 table3 fig12 \
    table4 fig8 ablation-multiapp ext-phases --fast --quiet \
    --trace "$SMOKE/a.jsonl" --results "$SMOKE/results.json" \
    --profile "$SMOKE/profile.json" > /dev/null
./target/release/icm-experiments fig2 fig3 fig4 table3 fig12 \
    table4 fig8 ablation-multiapp ext-phases --fast --quiet \
    --trace "$SMOKE/b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/a.jsonl" "$SMOKE/b.jsonl"
./target/release/icm-trace summarize "$SMOKE/a.jsonl" --json > /dev/null
./target/release/icm-report "$SMOKE/results.json" --profile "$SMOKE/profile.json" \
    --out "$SMOKE/report.html" --text > /dev/null
test -s "$SMOKE/report.html"
echo "verify: report smoke OK"

# Fault-injection smoke: the robustness sweep injects probe failures,
# stragglers and corrupted measurements — two same-seed faulty runs must
# write byte-identical traces, and the sweep must render under the
# strict (fail-on-Fail-verdict) report gate. The sweep does not trace
# its faults, retries or probes yet, so each trace holds only the
# `experiment.begin`/`.end` pair (2 events) (ROADMAP item 4).
./target/release/icm-experiments robustness --fast --quiet \
    --trace "$SMOKE/fault-a.jsonl" --results "$SMOKE/robustness.json" > /dev/null
./target/release/icm-experiments robustness --fast --quiet \
    --trace "$SMOKE/fault-b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/fault-a.jsonl" "$SMOKE/fault-b.jsonl"
./target/release/icm-report "$SMOKE/robustness.json" --strict \
    --out "$SMOKE/robustness.html" > /dev/null
test -s "$SMOKE/robustness.html"
echo "verify: fault-injection smoke OK"

# Recovery smoke: the self-healing runtime supervises scripted crash and
# drift scenarios — two same-seed managed sweeps must write byte-identical
# traces, the trace summary must show supervisory actions, and the sweep
# must pass the strict report gate (managed ≤ unmanaged violation time).
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/recovery-a.jsonl" --results "$SMOKE/recovery.json" > /dev/null
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/recovery-b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/recovery-a.jsonl" "$SMOKE/recovery-b.jsonl"
# Anneal-determinism smoke: the manager's re-anneals are traced, so the
# same-seed byte-identical diff above covers its searches — but only if
# a search actually ran. Check the serialized span-start marker.
grep -q '"name":"anneal.begin"' "$SMOKE/recovery-a.jsonl" \
    || { echo "verify: no anneal spans in the recovery trace" >&2; exit 1; }
./target/release/icm-trace summarize "$SMOKE/recovery-a.jsonl" \
    | grep -q "action migrate" \
    || { echo "verify: no manager actions in the recovery trace" >&2; exit 1; }
# Real traces are well nested: every span closes, innermost first. That
# is the precondition under which the one span matcher reproduces each
# replay (summary, flamegraph, telemetry) byte for byte.
./target/release/icm-trace flame "$SMOKE/recovery-a.jsonl" --json | grep -q '"dangling":0,' \
    || { echo "verify: the recovery trace has dangling spans" >&2; exit 1; }
./target/release/icm-report "$SMOKE/recovery.json" --strict \
    --out "$SMOKE/recovery.html" > /dev/null
test -s "$SMOKE/recovery.html"
echo "verify: recovery smoke OK"

# Telemetry smoke: the same recovery sweep with streaming telemetry
# teed alongside the trace must leave the raw trace byte-identical,
# write a parseable health artifact under the fixed byte budget that a
# second same-seed run reproduces byte-for-byte, and feed both the
# flamegraph reconstruction and the strict report gate.
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/tel-a.jsonl" --telemetry "$SMOKE/tel-a.json" > /dev/null
./target/release/icm-experiments recovery --fast --quiet \
    --telemetry "$SMOKE/tel-b.json" > /dev/null
./target/release/icm-trace diff "$SMOKE/recovery-a.jsonl" "$SMOKE/tel-a.jsonl"
cmp "$SMOKE/tel-a.json" "$SMOKE/tel-b.json" \
    || { echo "verify: same-seed telemetry artifacts diverged" >&2; exit 1; }
TEL_BYTES=$(wc -c < "$SMOKE/tel-a.json")
test "$TEL_BYTES" -le 262144 \
    || { echo "verify: telemetry artifact is $TEL_BYTES bytes, over budget" >&2; exit 1; }
grep -q '"snapshots"' "$SMOKE/tel-a.json" \
    || { echo "verify: no health snapshots in the telemetry artifact" >&2; exit 1; }
./target/release/icm-trace flame "$SMOKE/tel-a.jsonl" > /dev/null
./target/release/icm-report "$SMOKE/recovery.json" --strict \
    --telemetry "$SMOKE/tel-a.json" --flame "$SMOKE/tel-a.jsonl" \
    --out "$SMOKE/telemetry.html" > /dev/null
test -s "$SMOKE/telemetry.html"
echo "verify: telemetry smoke OK"

# Provenance smoke: every manager action in the recovery trace must
# explain to a complete causal chain that closes with an outcome line,
# the explanation must be byte-identical across the two same-seed
# traces, and the violation attribution must render.
./target/release/icm-trace explain "$SMOKE/recovery-a.jsonl" --action 0 \
    > "$SMOKE/explain-a.txt"
grep -q "outcome" "$SMOKE/explain-a.txt" \
    || { echo "verify: action 0 chain has no outcome hop" >&2; exit 1; }
./target/release/icm-trace explain "$SMOKE/recovery-b.jsonl" --action 0 \
    > "$SMOKE/explain-b.txt"
cmp "$SMOKE/explain-a.txt" "$SMOKE/explain-b.txt" \
    || { echo "verify: same-seed explanations diverged" >&2; exit 1; }
./target/release/icm-trace explain "$SMOKE/recovery-a.jsonl" --violations \
    | grep -q "attributed" \
    || { echo "verify: violation attribution did not render" >&2; exit 1; }
echo "verify: provenance smoke OK"

# Kill-and-resume smoke: a checkpointed endurance run is aborted
# mid-flight (--kill-after: no flushes, no destructors — a SIGKILL
# stand-in), then resumed from the newest good snapshot generation.
# One byte of the newest generation is flipped first, so the resume
# must walk back to generation 1 and truncate the trace to that older
# offset. The resumed run's event trace and results document must be
# byte-identical to an uninterrupted same-seed checkpointed run's.
./target/release/icm-experiments endurance --fast --quiet \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/ref-ckpt" \
    --trace "$SMOKE/endure-ref.jsonl" --results "$SMOKE/endure-ref.json" > /dev/null
if ./target/release/icm-experiments endurance --fast --quiet \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/kill-ckpt" \
    --kill-after 5 --trace "$SMOKE/endure-kill.jsonl" > /dev/null 2>&1; then
    echo "verify: --kill-after did not kill the run" >&2; exit 1
fi
GEN2="$SMOKE/kill-ckpt/gen-000002.icmsnap"
test -s "$GEN2" \
    || { echo "verify: the killed run left no second checkpoint generation" >&2; exit 1; }
flip_middle_byte "$GEN2"
./target/release/icm-experiments --resume "$SMOKE/kill-ckpt" --fast \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/kill-ckpt" \
    --trace "$SMOKE/endure-kill.jsonl" --results "$SMOKE/endure-kill.json" \
    > /dev/null 2> "$SMOKE/resume.log"
grep -q "resuming from generation 1 " "$SMOKE/resume.log" \
    || { echo "verify: the resume did not fall back past the flipped generation" >&2; exit 1; }
cmp "$SMOKE/endure-ref.jsonl" "$SMOKE/endure-kill.jsonl" \
    || { echo "verify: resumed trace diverged from the uninterrupted run" >&2; exit 1; }
cmp "$SMOKE/endure-ref.json" "$SMOKE/endure-kill.json" \
    || { echo "verify: resumed results diverged from the uninterrupted run" >&2; exit 1; }
./target/release/icm-trace flame "$SMOKE/endure-ref.jsonl" --json | grep -q '"dangling":0,' \
    || { echo "verify: the endurance trace has dangling spans" >&2; exit 1; }
echo "verify: kill-and-resume smoke OK"
# A replay of action 0 needs a starting point: explain must name the
# newest checkpoint generation that precedes the action's tick.
./target/release/icm-trace explain "$SMOKE/endure-ref.jsonl" --action 0 \
    --checkpoint-dir "$SMOKE/ref-ckpt" | grep -q "checkpoint: gen-" \
    || { echo "verify: explain did not name a resume checkpoint" >&2; exit 1; }
echo "verify: checkpoint naming smoke OK"

# Serve smoke: the placement daemon works a scripted mix (timed
# requests, a malformed line, a deliberate overload burst), is killed
# with SIGABRT mid-stream (--kill-after-commits: no flushes, no
# destructors), and is restarted on the same state directory. The
# unstamped requests are served as they arrive, so the queue drains at
# their frame edges and the killed life checkpoints: recovery restores
# that checkpoint instead of replaying from the first frame. Every
# acknowledged (journaled) reply must survive the kill byte-for-byte,
# the recovered journal must equal an uninterrupted same-script run's,
# and a same-seed rerun must be byte-identical end to end.
scripts/serve_script.sh > "$SMOKE/serve-script.jsonl"
./target/release/icm-server --fast --state "$SMOKE/ref-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
grep -q '"status":"overloaded"' "$SMOKE/ref-serve/journal.log" \
    || { echo "verify: the burst shed nothing" >&2; exit 1; }
grep -q '"status":"error"' "$SMOKE/ref-serve/journal.log" \
    || { echo "verify: the malformed line got no typed error" >&2; exit 1; }
if ./target/release/icm-server --fast --state "$SMOKE/kill-serve" --checkpoint-every 6 \
    --kill-after-commits 9 --input "$SMOKE/serve-script.jsonl" --quiet \
    > /dev/null 2>&1; then
    echo "verify: --kill-after-commits did not kill the daemon" >&2; exit 1
fi
test -s "$SMOKE/kill-serve/journal.log" \
    || { echo "verify: the killed daemon journaled nothing" >&2; exit 1; }
test -n "$(ls "$SMOKE/kill-serve/checkpoints")" \
    || { echo "verify: the killed daemon left no checkpoint" >&2; exit 1; }
cp "$SMOKE/kill-serve/journal.log" "$SMOKE/pre-kill-journal.log"
# Refusal smoke: a copy of the killed state with one byte flipped in the
# middle of its intake log. That is damage with entries after it, not a
# torn tail, so the restart must refuse, name the log, and leave it as
# it is.
cp -R "$SMOKE/kill-serve" "$SMOKE/damaged-serve"
INTAKE="$SMOKE/damaged-serve/intake.log"
flip_middle_byte "$INTAKE"
cp "$INTAKE" "$SMOKE/damaged-intake.log"
if ./target/release/icm-server --fast --state "$SMOKE/damaged-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null 2> "$SMOKE/damaged.log"; then
    echo "verify: the daemon started on a damaged intake log" >&2; exit 1
fi
grep -qF "intake.log" "$SMOKE/damaged.log" \
    || { echo "verify: the refusal does not name intake.log" >&2; exit 1; }
cmp "$INTAKE" "$SMOKE/damaged-intake.log" \
    || { echo "verify: the refused intake log was changed" >&2; exit 1; }
./target/release/icm-server --fast --state "$SMOKE/kill-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
head -c "$(wc -c < "$SMOKE/pre-kill-journal.log")" "$SMOKE/kill-serve/journal.log" \
    | cmp - "$SMOKE/pre-kill-journal.log" \
    || { echo "verify: acknowledged replies were lost across the kill" >&2; exit 1; }
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/kill-serve/journal.log" \
    || { echo "verify: recovered journal diverged from the uninterrupted run" >&2; exit 1; }
./target/release/icm-server --fast --state "$SMOKE/rerun-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/rerun-serve/journal.log" \
    || { echo "verify: same-seed serve reruns diverged" >&2; exit 1; }
echo "verify: serve smoke OK"

# Unsynced serve smoke: the same kill-and-resume cycle with --no-sync,
# under which the journal, the intake log and the checkpoints skip every
# fsync. That changes what survives power loss, never the bytes: the
# killed life still checkpoints, and the recovered journal must equal
# the synced reference run's.
if ./target/release/icm-server --fast --state "$SMOKE/nosync-serve" --checkpoint-every 6 \
    --no-sync --kill-after-commits 9 --input "$SMOKE/serve-script.jsonl" --quiet \
    > /dev/null 2>&1; then
    echo "verify: --kill-after-commits did not kill the unsynced daemon" >&2; exit 1
fi
test -n "$(ls "$SMOKE/nosync-serve/checkpoints")" \
    || { echo "verify: the killed unsynced daemon left no checkpoint" >&2; exit 1; }
./target/release/icm-server --fast --state "$SMOKE/nosync-serve" --checkpoint-every 6 \
    --no-sync --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/nosync-serve/journal.log" \
    || { echo "verify: the unsynced daemon's recovered journal diverged" >&2; exit 1; }
echo "verify: unsynced serve smoke OK"

# Restart smoke: the checkpoint owns what shapes replies, the process
# owns checkpoint cadence and sync. A --no-sync --checkpoint-every 6
# daemon killed after 9 commits, restarted with --checkpoint-every 2 and
# sync on, must still complete the reference journal, and its newest
# checkpoint generation must record the restarted life's sync setting.
if ./target/release/icm-server --fast --state "$SMOKE/restart-serve" --checkpoint-every 6 \
    --no-sync --kill-after-commits 9 --input "$SMOKE/serve-script.jsonl" --quiet \
    > /dev/null 2>&1; then
    echo "verify: --kill-after-commits did not kill the daemon before its restart" >&2; exit 1
fi
test -n "$(ls "$SMOKE/restart-serve/checkpoints")" \
    || { echo "verify: the daemon killed before its restart left no checkpoint" >&2; exit 1; }
./target/release/icm-server --fast --state "$SMOKE/restart-serve" --checkpoint-every 2 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/restart-serve/journal.log" \
    || { echo "verify: the restarted daemon's journal diverged" >&2; exit 1; }
NEWEST_GEN="$(find "$SMOKE/restart-serve/checkpoints" -name 'gen-*.icmsnap' | sort | tail -n 1)"
grep -q '"sync":true' "$NEWEST_GEN" \
    || { echo "verify: the restarted daemon's newest checkpoint records another sync" >&2; exit 1; }
echo "verify: restart serve smoke OK"
