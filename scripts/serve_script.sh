#!/usr/bin/env sh
# Prints the scripted `icm-server` input that `scripts/verify.sh` and
# `scripts/byte_identity.sh` drive the daemon with: timed requests, a
# malformed line, an unstamped pair that drains the queue at its frame
# edges, a deliberate overload burst, a status, a predict and a tick.
set -eu
printf '%s\n' \
    '{"id":"w1","kind":"predict","app":"M.milc","corunners":["H.KM"],"at_ms":100,"deadline_ms":500}' \
    '{"id":"o1","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":1.4,"at_ms":140,"deadline_ms":500}' \
    'this is not a request' \
    '{"id":"a1","kind":"place","iterations":200,"at_ms":200,"deadline_ms":500}' \
    '{"id":"u1","kind":"predict","app":"M.milc","corunners":["H.KM"]}' \
    '{"id":"u2","kind":"status"}'
i=0
while [ "$i" -lt 12 ]; do
    printf '{"id":"b%d","kind":"predict","app":"H.KM","corunners":["M.milc"],"priority":%d,"at_ms":400,"deadline_ms":60}\n' \
        "$i" $((i % 4))
    i=$((i + 1))
done
printf '%s\n' \
    '{"id":"s1","kind":"status","at_ms":900,"deadline_ms":500}' \
    '{"id":"w2","kind":"predict","app":"M.milc","corunners":["H.KM"],"at_ms":1000,"deadline_ms":500}' \
    '{"id":"t1","kind":"tick","at_ms":1100,"deadline_ms":120000}' \
    '{"id":"s2","kind":"status","at_ms":1300,"deadline_ms":500}'
