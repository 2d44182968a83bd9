#!/usr/bin/env sh
# Paper-claim sweep: regenerate every experiment at each seed in
# FIRST..LAST with the release binaries, grade each results document
# under the strict report gate, and print per-claim pass/warn/fail
# counts with the seeds that did not pass.
#
#   scripts/claim_sweep.sh 1 60
#
# Exits non-zero when any seed fails a claim. It is not a verify.sh
# step: some seeds still fail (ROADMAP item 1).
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
    echo "usage: scripts/claim_sweep.sh FIRST LAST" >&2
    exit 2
fi
FIRST=$1
LAST=$2

cargo build --release --offline -p icm-experiments -p icm-report
SWEEP="$(mktemp -d)"
trap 'rm -rf "$SWEEP"' EXIT

START=$(date +%s)
FAILED=0
seed=$FIRST
while [ "$seed" -le "$LAST" ]; do
    ./target/release/icm-experiments all --seed "$seed" --quiet \
        --results "$SWEEP/$seed.json" > /dev/null
    if ! ./target/release/icm-report "$SWEEP/$seed.json" --text --strict \
        > "$SWEEP/$seed.txt"; then
        FAILED=$((FAILED + 1))
    fi
    # One `<seed> <status> <claim>` line per verdict.
    sed -nE "s/^  [^ ]+ (pass|warn|fail|missing) +(.*)$/$seed \1 \2/p" \
        "$SWEEP/$seed.txt" >> "$SWEEP/verdicts"
    seed=$((seed + 1))
done
END=$(date +%s)

awk '{
    seed = $1; status = $2
    $1 = ""; $2 = ""; claim = substr($0, 3)
    if (!(claim in seen)) { seen[claim] = 1; order[++n] = claim }
    count[claim, status]++
    if (status != "pass") seeds[claim] = seeds[claim] " " status ":" seed
}
END {
    for (i = 1; i <= n; i++) {
        c = order[i]
        printf "pass %3d  warn %3d  fail %3d  missing %3d  %s%s\n",
            count[c, "pass"], count[c, "warn"], count[c, "fail"],
            count[c, "missing"], c, (c in seeds) ? "\n    not passed:" seeds[c] : ""
    }
}' "$SWEEP/verdicts"
echo "seeds $FIRST-$LAST: $FAILED failed the strict gate, swept in $((END - START)) s"
test "$FAILED" -eq 0
