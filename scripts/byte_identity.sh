#!/usr/bin/env sh
# Same-seed byte identity against another revision.
#
# Usage: scripts/byte_identity.sh <rev>
#
# Extracts <rev> with `git archive` (the repository's .git is only
# read), builds it in release into a target directory of its own under
# a temporary directory, builds the working tree, and runs both builds
# at seeds 2016 and 7, each at the same output path so that paths
# recorded in the artifacts agree:
#
#   * `all --fast` and the full `all`: stdout and the `--results`
#     document;
#   * `icm-profiler profile --apps M.milc,M.Gems,H.KM`: the model store
#     and the `--trace` (the full-mode profiling path, whose fixed-size
#     run sets are measured as batches);
#   * `recovery endurance --fast`: stdout, `--trace`, `--telemetry` and
#     `--results`;
#   * `endurance --fast --checkpoint-every 2`: stdout, trace and every
#     snapshot generation;
#   * the scripted `icm-server` run of `scripts/verify.sh`
#     (`scripts/serve_script.sh`): the journal, the intake log and every
#     checkpoint generation.
#
# Every artifact is compared with `cmp`. The script names every file
# that differs and every file that exists on one side only, so a
# deliberate format change shows its whole footprint, then exits
# non-zero if it named any.
set -eu
cd "$(dirname "$0")/.."
REV="${1:?usage: scripts/byte_identity.sh <rev>}"
HERE="$(pwd)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/src" "$WORK/base" "$WORK/head"
git archive "$REV" | tar -x -C "$WORK/src"
CARGO_TARGET_DIR="$WORK/target" cargo build --workspace --release --offline -q \
    --manifest-path "$WORK/src/Cargo.toml"
cargo build --workspace --release --offline -q
scripts/serve_script.sh > "$WORK/serve-script.jsonl"

# Runs every artifact-producing command with the binaries in $1, writing
# into the fixed path $WORK/out, then moves the outputs to $2.
produce() {
    BIN="$1"
    for SEED in 2016 7; do
        OUT="$WORK/out"
        rm -rf "$OUT"
        mkdir -p "$OUT"
        "$BIN/icm-experiments" all --fast --quiet --seed "$SEED" \
            --results "$OUT/all.json" > "$OUT/all.stdout"
        "$BIN/icm-experiments" all --quiet --seed "$SEED" \
            --results "$OUT/all-full.json" > "$OUT/all-full.stdout"
        "$BIN/icm-profiler" profile --apps M.milc,M.Gems,H.KM --seed "$SEED" \
            --out "$OUT/fleet.json" --trace "$OUT/fleet.jsonl" --quiet > "$OUT/fleet.stdout"
        "$BIN/icm-experiments" recovery endurance --fast --quiet --seed "$SEED" \
            --trace "$OUT/recovery.jsonl" --telemetry "$OUT/recovery-telemetry.json" \
            --results "$OUT/recovery.json" > "$OUT/recovery.stdout"
        "$BIN/icm-experiments" endurance --fast --quiet --seed "$SEED" \
            --checkpoint-every 2 --checkpoint-dir "$OUT/endurance-ckpt" \
            --trace "$OUT/endurance.jsonl" > "$OUT/endurance.stdout"
        "$BIN/icm-server" --fast --seed "$SEED" --state "$OUT/serve" \
            --checkpoint-every 6 --input "$WORK/serve-script.jsonl" --quiet \
            > "$OUT/serve.stdout"
        mv "$OUT" "$2/seed-$SEED"
    done
}
produce "$WORK/target/release" "$WORK/base"
produce "$HERE/target/release" "$WORK/head"

cd "$WORK"
(cd base && find . -type f | sort) > base.list
(cd head && find . -type f | sort) > head.list
FAILED=0
comm -23 base.list head.list > base-only.list
while read -r F; do
    echo "byte_identity: $F exists only at $REV" >&2
    FAILED=1
done < base-only.list
comm -13 base.list head.list > head-only.list
while read -r F; do
    echo "byte_identity: $F exists only in the working tree" >&2
    FAILED=1
done < head-only.list
comm -12 base.list head.list > both.list
while read -r F; do
    cmp -s "base/$F" "head/$F" || {
        echo "byte_identity: $F differs between $REV and the working tree" >&2
        FAILED=1
    }
done < both.list
if [ "$FAILED" -ne 0 ]; then
    exit 1
fi
echo "byte_identity: $(wc -l < base.list) files identical to $REV"
