#!/bin/sh
# Pre-commit check: tier-1 build + test suites, a quick chaos soak
# (5 seeded within-budget schedules; every oracle must stay green), a
# field-fleet smoke, a reconfiguration soak, then a release-profile
# build with E2 + E6 + E11 bench smoke runs (exercises the wire layer,
# the byte-accounting tables, and the epoch cutover path end to end).
set -e
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec dev/debug.exe -- chaos 5

# Positional-argument contract of the dev executables: a garbage value
# or a stray argument exits 2 printing the valid forms.
expect_exit_2() {
  set +e
  "$@" 2> /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "check.sh: '$*' exited $rc, expected 2"
    exit 1
  fi
}
for args in "chaos abc" "chaos2 xyz" "loss 1 nope" "loss2 1 nope" \
  "stress q" "adapt delay x" "one e8"; do
  # shellcheck disable=SC2086 # split the argument list on purpose
  expect_exit_2 dune exec dev/debug.exe -- $args
done
expect_exit_2 dune exec dev/reconfig_soak.exe -- x
expect_exit_2 dune exec dev/telemetry_smoke.exe -- 0

# Parallel sweep smoke: E10's soak seeds farmed over 4 domains must
# print byte-identical tables to the sequential run (PAR only changes
# wall time, never results).
PAR=4 ONLY=E10 MICRO=0 dune exec bench/main.exe > /dev/null

# Field-fleet smoke at 1k devices: E12 exits nonzero if any sweep
# point confirms zero events (aggregation or the write path broken).
FLEET=1000 ONLY=E12 MICRO=0 dune exec bench/main.exe > /dev/null

# Telemetry-enabled E2 smoke: zero orphan spans, bounded open spans,
# per-phase attribution reconciling with end-to-end latency.
dune exec dev/telemetry_smoke.exe

# Reconfiguration soak: seeded fault schedules injected during epoch
# cutover windows; agreement / epoch-safety / progress must stay green.
dune exec dev/reconfig_soak.exe -- 3 7100

dune build --profile release
EXPERIMENT=E2 MICRO=0 dune exec --profile release bench/main.exe
EXPERIMENT=E6 MICRO=0 dune exec --profile release bench/main.exe
# E11 exits nonzero on any epoch-safety violation, wrong final epoch, or
# a confirmation gap over 8s during the failover/rejoin/growth arc.
EXPERIMENT=E11 MICRO=0 dune exec --profile release bench/main.exe
# E13 exits nonzero unless the adaptive controller converges within 25%
# of the best static configuration under each replayed attack, beats
# the worst static across attacks, and every knob-change journal
# reconciles with its counters (statics must issue zero requests).
EXPERIMENT=E13 MICRO=0 dune exec --profile release bench/main.exe

# Perf trajectory (telemetry disabled, as in production hot paths):
# regenerates BENCH_PERF.json and fails if E3 events/sec or the E12
# fleet confirmed-event rate falls below the floors recorded in the file.
PERF=1 dune exec --profile release bench/main.exe

echo "check.sh: all green"
