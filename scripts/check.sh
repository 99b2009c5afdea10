#!/bin/sh
# CI gate: full build, test suite, and a benchmark smoke run.
#
# The bench smoke uses a tiny measurement quota (MOOD_BENCH_QUOTA, in
# seconds) — it verifies the harness runs end to end and emits
# BENCH_micro.json (generated, gitignored), not that the numbers are
# stable. Run `dune exec bench/main.exe -- micro` without the quota
# for real measurements; representative numbers live in DESIGN.md §3c.
set -eu
cd "$(dirname "$0")/.."

# wait_port FILE PID NAME: wait up to 10 s for the daemon NAME, launched
# in the background as PID, to publish its bound port in FILE; fail if
# it dies first.
wait_port() {
  tries=0
  while [ ! -s "$1" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "$3 never published its port"; exit 1; }
    kill -0 "$2" 2>/dev/null || { echo "$3 died on startup"; exit 1; }
    sleep 0.1
  done
}

# A failing gate exits at once. Every daemon a smoke left running
# would keep the script's stdout open, so a caller reading it through
# a pipe would wait until someone killed the daemon: on a failing
# exit, kill every PID the smokes recorded. (A passing run has waited
# for each of them already.)
cleanup() {
  [ "$?" -ne 0 ] || return 0
  for pid in ${SERVER_PID:-} ${IDLE_PID:-} ${IDLE_LOAD_PID:-} ${MVCC_PID:-} \
    ${PRIMARY_PID:-} ${REPLICA_PID:-} ${SHARD0_PID:-} ${SHARD1_PID:-} ${SHARD2_PID:-} \
    ${ROUTER_PID:-}; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

echo "== no process globals in lib/ =="
# Planner settings, counters and fault hooks belong to a database (or
# to the env a caller builds), never to a toplevel ref, atomic or hash
# table that every database in the process would share.
globals="$(grep -rnE '^let [a-z_0-9]+ *(:[^=]*)?= *(ref\b|Atomic\.make|Hashtbl\.create)' lib --include='*.ml' || true)"
[ -z "$globals" ] || { echo "process-global state in lib/:"; echo "$globals"; exit 1; }

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== examples =="
# The five programs under examples/ are built by @all; each must run to
# a zero exit (well under a second for all five). company_analytics'
# failing UPDATE must leave every age as it was, which it reports as
# "rollback held".
for EX in quickstart vehicle_registry company_analytics spatial_fleet media_library; do
  EX_OUT="$(./_build/default/examples/$EX.exe)" || { echo "example $EX failed"; exit 1; }
  if [ "$EX" = company_analytics ]; then
    printf '%s\n' "$EX_OUT" | grep -q 'rollback held' \
      || { echo "company_analytics: the failed UPDATE was not rolled back"; exit 1; }
  fi
done

echo "== bench smoke (json) =="
# The join and scan sections are one-shot wall clock, so the smoke
# shrinks their datasets too (MOOD_BENCH_JOIN_ROWS /
# MOOD_BENCH_SCAN_ROWS; 10000 per side and 100000 rows are the real
# runs).
MOOD_BENCH_QUOTA="${MOOD_BENCH_QUOTA:-0.02}" \
MOOD_BENCH_JOIN_ROWS="${MOOD_BENCH_JOIN_ROWS:-2000}" \
MOOD_BENCH_SCAN_ROWS="${MOOD_BENCH_SCAN_ROWS:-20000}" \
  dune exec bench/main.exe -- json
grep -q '"join"' BENCH_micro.json || { echo "BENCH_micro.json: no join section"; exit 1; }
# Each join method reports its spill counters, and Grace hash under the
# 64 KB budget must actually spill.
for counter in join.partitions_spilled join.spill_bytes; do
  grep -q "\"$counter\"" BENCH_micro.json \
    || { echo "BENCH_micro.json: no $counter"; exit 1; }
done
grep '"name": "grace_hash"' BENCH_micro.json | grep -q '"join.partitions_spilled": [1-9]' \
  || { echo "BENCH_micro.json: grace_hash spilled no partitions"; exit 1; }
grep -q '"scan"' BENCH_micro.json || { echo "BENCH_micro.json: no scan section"; exit 1; }
grep -q '"pax_vs_row_speedup"' BENCH_micro.json \
  || { echo "BENCH_micro.json: no pax_vs_row_speedup"; exit 1; }
grep -q '"pax_vectorized_after_insert"' BENCH_micro.json \
  || { echo "BENCH_micro.json: no pax_vectorized_after_insert"; exit 1; }
# After every 16th ScanBench row is updated, the VSCAN rebuilds every
# page: it must re-read from the heap exactly the rows updated, and
# take the others from the kept batches' column arrays. Boxing each
# kept row into a tuple to re-encode it costs about 85 minor words a
# row; the column merge about 25.
AFTER_UPDATE="$(grep '"name": "pax_vectorized_after_update"' BENCH_micro.json || true)"
[ -n "$AFTER_UPDATE" ] || { echo "BENCH_micro.json: no pax_vectorized_after_update"; exit 1; }
field() { printf '%s\n' "$AFTER_UPDATE" | grep -o "\"$1\": [0-9.]*" | grep -o '[0-9.]*$' || true; }
REREAD="$(field rows_reread)"
UPDATED="$(field rows_updated)"
KEPT_WORDS="$(field minor_words_per_kept_row)"
[ -n "$REREAD" ] && [ "$REREAD" = "$UPDATED" ] \
  || { echo "pax_vectorized_after_update re-read $REREAD rows, $UPDATED were updated"; exit 1; }
awk -v w="$KEPT_WORDS" 'BEGIN { exit !(w < 50) }' \
  || { echo "pax_vectorized_after_update allocates $KEPT_WORDS minor words per kept row, want < 50"; exit 1; }
grep -q '"grouped_pax_vs_row_speedup"' BENCH_micro.json \
  || { echo "BENCH_micro.json: no grouped_pax_vs_row_speedup"; exit 1; }
grep -q '"grouped_row_many_groups"' BENCH_micro.json \
  || { echo "BENCH_micro.json: no grouped_row_many_groups"; exit 1; }
for row in "heap record encode" "heap record decode" "pax page encode" "pax page decode"; do
  grep -q "codec: $row (2500 rows)" BENCH_micro.json \
    || { echo "BENCH_micro.json: no codec: $row row"; exit 1; }
done
# The row engine streams: a scanned row is filtered and folded before
# the next is decoded, so it dies in the minor heap. A compiled row
# plan that promotes 5 or more words per scanned row to the major heap
# is holding its input again (a materializing operator promotes a
# whole row's worth, tens of words).
PROMOTED="$(grep '"name": "row_compiled"' BENCH_micro.json \
  | grep -o '"promoted_words_per_row": [0-9.]*' | grep -o '[0-9.]*$')"
[ -n "$PROMOTED" ] || { echo "BENCH_micro.json: no promoted_words_per_row for row_compiled"; exit 1; }
awk -v p="$PROMOTED" 'BEGIN { exit !(p < 5) }' \
  || { echo "row_compiled promotes $PROMOTED words per scanned row, want < 5"; exit 1; }

# A method call in a WHERE clause binds once per scope and runs on the
# row's value: beyond the same predicate written inline it allocates 7
# minor words per row. Binding and fetching the receiver on every call
# allocated 321.
EXTRA_WORDS="$(grep -o '"method_pred_extra_words_per_row": [0-9.-]*' BENCH_micro.json \
  | grep -o '[0-9.-]*$')"
[ -n "$EXTRA_WORDS" ] || { echo "BENCH_micro.json: no method_pred_extra_words_per_row"; exit 1; }
awk -v w="$EXTRA_WORDS" 'BEGIN { exit !(w < 50) }' \
  || { echo "a method predicate allocates $EXTRA_WORDS extra minor words per row, want < 50"; exit 1; }

echo "== perfbench selftest =="
# The end-to-end benchmark's own tests: the rendered-row parser, the
# answer oracle with its negative controls, and the exact-count test
# of the counter repetition. They fork servers (about 30 s).
dune build @perfbench/test/selftest

echo "== answer-oracle smokes (oltp, olap, htap) =="
# Each workload over the wire for 3 s (about 25 s in all): every reply
# is checked against the benchmark's own oracle. oltp runs keyed reads
# after UPDATEs inside session transactions, olap the analytic suite
# (path, join, aggregate and scan plans), htap writes before scans of
# the same PAX classes. A wrong or failed answer fails the gate.
for W in oltp olap htap; do
  RESULT="$(python3 perfbench/run.py --workload "$W" --seed 7 --seconds 3 --trace 0 \
    | tail -n 1)"
  echo "$RESULT" | grep -q '"correct": true' \
    || { echo "$W smoke: wrong answers: $RESULT"; exit 1; }
  echo "$RESULT" | grep -q '"failed": 0,' \
    || { echo "$W smoke: failed operations: $RESULT"; exit 1; }
done

echo "== crash/recover harness =="
# Every crash_sim phase (recovery, replication, MVCC snapshots, join
# oracle, 2PC, group commit, scan oracle; listed in
# lib/sim/phases.ml) runs MOOD_SIM_QUOTA seeded cycles from fixed
# seeds, so CI is deterministic, then its negative control. A
# violation or a toothless control fails the build and prints the
# seed and crash site needed to reproduce it. Each phase must also
# print exactly one caught negative control: a phase dropped from the
# list, or left without a control, fails here.
SIM_OUT="$(mktemp)"
SIM_STATUS=0
MOOD_SIM_QUOTA="${MOOD_SIM_QUOTA:-200}" dune exec bin/crash_sim.exe > "$SIM_OUT" \
  || SIM_STATUS=$?
cat "$SIM_OUT"
[ "$SIM_STATUS" -eq 0 ] || { echo "crash_sim failed (exit $SIM_STATUS)"; exit 1; }
SIM_CONTROLS="$(grep '^mood_sim: .* negative control caught' "$SIM_OUT" \
  | sed 's/ negative control caught.*//' | sort -u | wc -l)"
[ "$SIM_CONTROLS" -eq 7 ] \
  || { echo "crash_sim: $SIM_CONTROLS phases caught their negative control, want 7"; exit 1; }
# The recovery, replication, MVCC and 2PC phases run the shipped Db and
# check its indexes against the data (Catalog.validate_indexes). A
# phase whose report counts no index checks has stopped validating.
SIM_FLAT="$(tr '\n' ' ' < "$SIM_OUT")"
for P in recovery replication mvcc 2pc; do
  CHECKS="$(printf '%s' "$SIM_FLAT" | sed 's/mood_sim: /\n&/g' \
    | grep "^mood_sim: $P, seeds" | grep -o '[0-9]* index checks' | grep -o '^[0-9]*')"
  [ "${CHECKS:-0}" -gt 0 ] \
    || { echo "crash_sim: the $P phase reported no index checks"; exit 1; }
done
# The join phase runs half its queries under tiny budgets so Grace hash
# and sort-merge go through their spill records. A record format that
# stopped overflowing them would leave only the in-memory joins tested.
SPILLED="$(printf '%s' "$SIM_FLAT" | sed 's/mood_sim: /\n&/g' \
  | grep "^mood_sim: join, seeds" | grep -o '[0-9]* partitions spilled' | grep -o '^[0-9]*')"
[ "${SPILLED:-0}" -gt 0 ] \
  || { echo "crash_sim: the join phase spilled no partitions"; exit 1; }
rm -f "$SIM_OUT"

echo "== EXPLAIN ANALYZE smoke =="
# The est-vs-actual surface end to end: plan, trace, render. Greps for
# the per-node actuals and the run-total footer; a broken tracer or
# renderer fails the gate even if unit tests were skipped.
./_build/default/bin/mood_cli.exe analyze --demo \
  "SELECT v FROM Vehicle v WHERE v.weight > 3.0" > /tmp/mood_analyze.$$
grep -q "rows=" /tmp/mood_analyze.$$ || { echo "EXPLAIN ANALYZE: no per-node actuals"; exit 1; }
grep -q "est=" /tmp/mood_analyze.$$ || { echo "EXPLAIN ANALYZE: no estimates"; exit 1; }
grep -q "actual rows:" /tmp/mood_analyze.$$ || { echo "EXPLAIN ANALYZE: no run totals"; exit 1; }
grep -q "promoted words: [0-9]" /tmp/mood_analyze.$$ \
  || { echo "EXPLAIN ANALYZE: no allocation totals"; exit 1; }
rm -f /tmp/mood_analyze.$$

echo "== server smoke (wire protocol + load) =="
# Boots the network front end on an ephemeral port, drives it with the
# seeded load generator under a tiny statement budget (MOOD_LOAD_QUOTA,
# total statements across all sessions), then SIGTERMs the daemon. The
# daemon's exit status is the zero-leak audit: non-zero if any session,
# transaction or lock survived shutdown. Binaries are invoked from
# _build directly — a backgrounded `dune exec` would hold the dune lock
# and deadlock the load generator's own invocation.
SMOKE_PORT_FILE="$(mktemp)"
rm -f BENCH_server.json
./_build/default/bin/mood_server.exe --demo --port 0 \
  --port-file "$SMOKE_PORT_FILE" &
SERVER_PID=$!
wait_port "$SMOKE_PORT_FILE" "$SERVER_PID" server
MOOD_LOAD_QUOTA="${MOOD_LOAD_QUOTA:-160}" ./_build/default/bin/load_gen.exe \
  --port "$(cat "$SMOKE_PORT_FILE")" --sessions 8
# STATS over the wire while the daemon is still up: the one-shot
# counter dump must list every server and session row exactly once (a
# source registered twice would list its rows twice) and include the
# kernel namespace. (The load generator above already enforced
# snapshot consistency.)
./_build/default/bin/mood_cli.exe top "127.0.0.1:$(cat "$SMOKE_PORT_FILE")" \
  > /tmp/mood_top.$$
for K in server.deadlock_aborts server.decides server.disconnect_aborts \
  server.gc_batches server.gc_commits server.gc_max_batch server.prepares \
  server.protocol_errors server.redirects server.sessions_active \
  server.sessions_opened server.statements server.timeout_aborts \
  server.wrong_shard_redirects session.statements session.rows_returned \
  session.aborts; do
  N="$(awk -v k="$K" '$1 == k { n++ } END { print n + 0 }' /tmp/mood_top.$$)"
  [ "$N" -eq 1 ] || { echo "STATS: $K listed $N times"; exit 1; }
done
grep -q "^stmt.select " /tmp/mood_top.$$ || { echo "STATS: no kernel counters"; exit 1; }
rm -f /tmp/mood_top.$$
# Join engine over the wire: force each algorithm through the SET
# JOIN_FORCE knob, EXPLAIN ANALYZE the same value equi-join, and pin
# the operator label plus per-node actuals. The setting belongs to the
# server's database, so every session shares it: it is reset to DEFAULT
# afterwards.
SPORT="$(cat "$SMOKE_PORT_FILE")"
for METHOD in HASH_JOIN GRACE_HASH SORT_MERGE FUSION_JOIN NESTED_LOOP; do
  ./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
    "SET JOIN_FORCE $METHOD" > /dev/null
  ./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
    "EXPLAIN ANALYZE SELECT v FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size" \
    > /tmp/mood_join.$$
  grep -q "JOIN\[$METHOD\]" /tmp/mood_join.$$ \
    || { echo "join smoke: $METHOD not in the plan"; exit 1; }
  grep -q "rows=" /tmp/mood_join.$$ \
    || { echo "join smoke: $METHOD ran without actuals"; exit 1; }
done
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "SET JOIN_FORCE DEFAULT" > /dev/null
rm -f /tmp/mood_join.$$
# The join.* counters must surface through STATS after the forced runs.
./_build/default/bin/mood_cli.exe top "127.0.0.1:$SPORT" > /tmp/mood_join_top.$$
grep -q "^join.mem_bytes " /tmp/mood_join_top.$$ || { echo "STATS: no join knobs"; exit 1; }
grep -q "^join.hash_builds " /tmp/mood_join_top.$$ || { echo "STATS: no join counters"; exit 1; }
grep -Eq "^join\.live_temp_files +0\$" /tmp/mood_join_top.$$ \
  || { echo "STATS: join temp files leaked"; exit 1; }
rm -f /tmp/mood_join_top.$$
# Columnar engine over the wire: create a PAX-layout class, force the
# vectorized scan, and pin the VSCAN operator with its batch totals in
# EXPLAIN ANALYZE plus the scan.* counters in STATS. The setting belongs
# to the server's database, so every session shares it: it is reset to
# DEFAULT afterwards.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "CREATE CLASS PaxSmoke TUPLE (k Integer, tag String(8)) LAYOUT PAX" > /dev/null
for K in 1 2 3 4 5 6 7 8; do
  ./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
    "new PaxSmoke <$K, 'g$((K % 2))'>" > /dev/null
done
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "SET SCAN_FORCE VECTOR" > /dev/null
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "EXPLAIN ANALYZE SELECT COUNT(*), SUM(p.k) FROM PaxSmoke p WHERE p.k > 2" \
  > /tmp/mood_scan.$$
grep -q "VSCAN" /tmp/mood_scan.$$ \
  || { echo "columnar smoke: no VSCAN in the plan"; exit 1; }
grep -q "vectorized:" /tmp/mood_scan.$$ \
  || { echo "columnar smoke: no batch totals"; exit 1; }
# The GROUP BY fuses into the scan: one VSCAN line carrying BY.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "EXPLAIN ANALYZE SELECT p.tag, COUNT(*) FROM PaxSmoke p GROUP BY p.tag" \
  > /tmp/mood_scan.$$
grep -q "VSCAN.*BY" /tmp/mood_scan.$$ \
  || { echo "columnar smoke: GROUP BY not fused into the VSCAN"; exit 1; }
grep -q "vectorized:" /tmp/mood_scan.$$ \
  || { echo "columnar smoke: no batch totals for the GROUP BY"; exit 1; }
rm -f /tmp/mood_scan.$$
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$SPORT" \
  "SET SCAN_FORCE DEFAULT" > /dev/null
./_build/default/bin/mood_cli.exe top "127.0.0.1:$SPORT" > /tmp/mood_scan_top.$$
grep -q "^scan.batches " /tmp/mood_scan_top.$$ \
  || { echo "STATS: no scan counters"; exit 1; }
rm -f /tmp/mood_scan_top.$$
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "server shutdown was not clean"; exit 1; }
rm -f "$SMOKE_PORT_FILE"
test -s BENCH_server.json || { echo "BENCH_server.json missing or empty"; exit 1; }

echo "== reactor smoke (hundreds of idle sessions, flat threads) =="
# The session-scaling claim made cheap: 300 parked connections plus a
# small active mix against one server. Idle connections are owned by
# the single reactor thread — one fd each, no handler thread, no
# timer — so the daemon's thread count must stay at its fixed four
# (main, the OCaml runtime's tick thread, the reactor and the
# log-writer; the bound leaves room for two more, not for a pool), its
# memory must stay flat, and the shutdown audit must still be clean
# with hundreds of sockets to tear down.
IDLE_PORT_FILE="$(mktemp)"
./_build/default/bin/mood_server.exe --demo --port 0 \
  --port-file "$IDLE_PORT_FILE" &
IDLE_PID=$!
wait_port "$IDLE_PORT_FILE" "$IDLE_PID" server
MOOD_LOAD_QUOTA="${MOOD_LOAD_QUOTA:-160}" ./_build/default/bin/load_gen.exe \
  --port "$(cat "$IDLE_PORT_FILE")" --sessions 4 --idle-sessions 300 &
IDLE_LOAD_PID=$!
# Sample the daemon while the idle fleet is connected (the fd count
# crossing 300 proves it is; a finished load_gen already closed them).
tries=0
while kill -0 "$IDLE_LOAD_PID" 2>/dev/null \
  && [ "$(ls /proc/$IDLE_PID/fd 2>/dev/null | wc -l)" -lt 300 ]; do
  tries=$((tries + 1))
  [ "$tries" -le 200 ] || { echo "idle sessions never connected"; exit 1; }
  sleep 0.1
done
IDLE_THREADS="$(awk '$1 == "Threads:" { print $2 }' /proc/$IDLE_PID/status)"
[ "$IDLE_THREADS" -le 6 ] \
  || { echo "reactor smoke: $IDLE_THREADS threads for 300 idle sessions"; exit 1; }
IDLE_RSS="$(awk '$1 == "VmRSS:" { print $2 }' /proc/$IDLE_PID/status)"
echo "reactor smoke: $IDLE_THREADS threads, ${IDLE_RSS}kB resident for 300 idle sessions"
[ "$IDLE_RSS" -le 524288 ] \
  || { echo "reactor smoke: ${IDLE_RSS}kB resident for 300 idle sessions"; exit 1; }
wait "$IDLE_LOAD_PID" || { echo "reactor smoke: load_gen failed"; exit 1; }
grep -q '"idle_sessions": 300' BENCH_server.json \
  || { echo "BENCH_server.json: no idle-session record"; exit 1; }
kill -TERM "$IDLE_PID"
wait "$IDLE_PID" || { echo "server shutdown was not clean"; exit 1; }
rm -f "$IDLE_PORT_FILE"

echo "== snapshot-read smoke (MVCC, read-heavy) =="
# A server under the read-heavy mix: reads must ride the lock-free
# path — zero busy retries and zero deadlock aborts attributable to
# reads — and the mvcc.* counters must surface through STATS. A marker write after the run proves snapshot
# reads did not cost writers anything: it lands and reads back.
MVCC_PORT_FILE="$(mktemp)"
./_build/default/bin/mood_server.exe --demo --port 0 \
  --port-file "$MVCC_PORT_FILE" &
MVCC_PID=$!
wait_port "$MVCC_PORT_FILE" "$MVCC_PID" server
MPORT="$(cat "$MVCC_PORT_FILE")"
MOOD_LOAD_QUOTA="${MOOD_LOAD_QUOTA:-160}" ./_build/default/bin/load_gen.exe \
  --port "$MPORT" --sessions 8 --read-ratio 95
grep -q '"busy_retries_read": 0' BENCH_server.json \
  || { echo "snapshot reads bounced BUSY"; exit 1; }
grep -q '"deadlock_aborts": 0' BENCH_server.json \
  || { echo "snapshot-read run deadlocked"; exit 1; }
./_build/default/bin/mood_cli.exe top "127.0.0.1:$MPORT" > /tmp/mood_mvcc_top.$$
grep -q "^mvcc.snapshot_reads " /tmp/mood_mvcc_top.$$ \
  || { echo "STATS: no mvcc counters"; exit 1; }
grep -q "^mvcc.versions_created " /tmp/mood_mvcc_top.$$ \
  || { echo "STATS: no mvcc version counters"; exit 1; }
rm -f /tmp/mood_mvcc_top.$$
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$MPORT" \
  "NEW VehicleEngine <990003, 8>" > /dev/null
# Reads take no lock: a SELECT, an EXPLAIN ANALYZE and NAME's query
# leave locks.grants where the marker write left it.
lock_grants() {
  ./_build/default/bin/mood_cli.exe top "127.0.0.1:$MPORT" \
    | awk '$1 == "locks.grants" { print $2 }'
}
GRANTS_BEFORE="$(lock_grants)"
[ -n "$GRANTS_BEFORE" ] || { echo "STATS: no locks.grants"; exit 1; }
MARKER="$(./_build/default/bin/mood_cli.exe sql "127.0.0.1:$MPORT" \
  "SELECT e FROM VehicleEngine e WHERE e.size = 990003" | wc -l)"
[ "$MARKER" -eq 1 ] || { echo "marker write lost under snapshot reads"; exit 1; }
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$MPORT" \
  "EXPLAIN ANALYZE SELECT e FROM VehicleEngine e WHERE e.size = 990003" > /dev/null \
  || { echo "EXPLAIN ANALYZE failed"; exit 1; }
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$MPORT" \
  "NAME mvcc_marker AS SELECT e FROM VehicleEngine e WHERE e.size = 990003" > /dev/null \
  || { echo "NAME failed"; exit 1; }
GRANTS_AFTER="$(lock_grants)"
[ "$GRANTS_AFTER" = "$GRANTS_BEFORE" ] \
  || { echo "reads took locks: locks.grants $GRANTS_BEFORE -> $GRANTS_AFTER"; exit 1; }
kill -TERM "$MVCC_PID"
wait "$MVCC_PID" || { echo "server shutdown was not clean"; exit 1; }
rm -f "$MVCC_PORT_FILE"

echo "== replication smoke (bootstrap, catch-up, promotion) =="
# A demo-seeded primary and a streaming replica on ephemeral ports.
# Mixed load fans reads over both endpoints (replica writes redirect
# back to the primary), a marker write proves streaming, then the
# primary is SIGTERMed (its exit status is the zero-leak audit), the
# replica is promoted, and the row count on the promoted node must
# equal the count committed on the primary before it died — zero lost
# committed writes. The multi-endpoint load_gen run rewrites
# BENCH_server.json with the per-endpoint read-scaling breakdown.
PRIMARY_PORT_FILE="$(mktemp)"
REPLICA_PORT_FILE="$(mktemp)"
./_build/default/bin/mood_server.exe --demo --port 0 \
  --port-file "$PRIMARY_PORT_FILE" &
PRIMARY_PID=$!
wait_port "$PRIMARY_PORT_FILE" "$PRIMARY_PID" primary
PPORT="$(cat "$PRIMARY_PORT_FILE")"
./_build/default/bin/mood_server.exe --port 0 \
  --port-file "$REPLICA_PORT_FILE" \
  --replica-of "127.0.0.1:$PPORT" --poll-interval 0.02 &
REPLICA_PID=$!
wait_port "$REPLICA_PORT_FILE" "$REPLICA_PID" replica
RPORT="$(cat "$REPLICA_PORT_FILE")"
MOOD_LOAD_QUOTA="${MOOD_LOAD_QUOTA:-160}" ./_build/default/bin/load_gen.exe \
  --endpoint "127.0.0.1:$PPORT" --endpoint "127.0.0.1:$RPORT" \
  --read-ratio 70 --sessions 8
grep -q '"endpoints"' BENCH_server.json \
  || { echo "BENCH_server.json: no per-endpoint breakdown"; exit 1; }
# Marker write on the primary; the committed row count is the bar the
# promoted replica must meet.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$PPORT" \
  "NEW VehicleEngine <990001, 64>" > /dev/null
COMMITTED="$(./_build/default/bin/mood_cli.exe sql "127.0.0.1:$PPORT" \
  "SELECT e FROM VehicleEngine e" | wc -l)"
tries=0
while :; do
  RCOUNT="$(./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RPORT" \
    "SELECT e FROM VehicleEngine e" | wc -l)"
  [ "$RCOUNT" -eq "$COMMITTED" ] && break
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "replica never caught up ($RCOUNT/$COMMITTED rows)"; exit 1; }
  sleep 0.1
done
# The replica's STATS surface carries the lag gauges, and the
# catch-up SELECTs above opened snapshots — record the stamp of the
# newest one for the monotonicity check after promotion.
./_build/default/bin/mood_cli.exe top "127.0.0.1:$RPORT" > /tmp/mood_repl_top.$$
grep -q "^repl.applied_lsn " /tmp/mood_repl_top.$$ || { echo "STATS: no repl.applied_lsn"; exit 1; }
grep -q "^repl.lag_records " /tmp/mood_repl_top.$$ || { echo "STATS: no repl.lag_records"; exit 1; }
grep -q "^repl.pulls " /tmp/mood_repl_top.$$ || { echo "STATS: no repl.pulls"; exit 1; }
grep -q "^repl.reconnects " /tmp/mood_repl_top.$$ || { echo "STATS: no repl.reconnects"; exit 1; }
SNAP_BEFORE="$(awk '$1 == "mvcc.last_snapshot_lsn" { print $2 }' /tmp/mood_repl_top.$$)"
[ -n "$SNAP_BEFORE" ] || { echo "STATS: no mvcc.last_snapshot_lsn on replica"; exit 1; }
rm -f /tmp/mood_repl_top.$$
kill -TERM "$PRIMARY_PID"
wait "$PRIMARY_PID" || { echo "primary shutdown was not clean"; exit 1; }
./_build/default/bin/mood_cli.exe promote "127.0.0.1:$RPORT"
PROMOTED="$(./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RPORT" \
  "SELECT e FROM VehicleEngine e" | wc -l)"
[ "$PROMOTED" -eq "$COMMITTED" ] \
  || { echo "promotion lost committed writes ($PROMOTED/$COMMITTED rows)"; exit 1; }
# The promoted node takes writes.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RPORT" \
  "NEW VehicleEngine <990002, 2>" > /dev/null
# Snapshot LSNs must never regress across failover: the promoted
# node's fresh WAL restarts near LSN 1, but the commit clock keeps
# counting from the shipped stream, so a snapshot opened after
# promotion (the SELECT above) stamps at or above any opened before.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RPORT" \
  "SELECT e FROM VehicleEngine e" > /dev/null
SNAP_AFTER="$(./_build/default/bin/mood_cli.exe top "127.0.0.1:$RPORT" \
  | awk '$1 == "mvcc.last_snapshot_lsn" { print $2 }')"
[ -n "$SNAP_AFTER" ] || { echo "STATS: no mvcc.last_snapshot_lsn after promotion"; exit 1; }
[ "$SNAP_AFTER" -ge "$SNAP_BEFORE" ] \
  || { echo "snapshot LSN regressed across promotion ($SNAP_BEFORE -> $SNAP_AFTER)"; exit 1; }
kill -TERM "$REPLICA_PID"
wait "$REPLICA_PID" || { echo "replica shutdown was not clean"; exit 1; }
rm -f "$PRIMARY_PORT_FILE" "$REPLICA_PORT_FILE"

echo "== sharding smoke (3 shards + router, mid-2PC shard kill) =="
# Three journaled shards behind a router. Mixed cross-shard load
# (hash-routed inserts interleaved with scatter UPDATEs that commit
# through 2PC), SIGKILL one shard mid-stream, restart it on the same
# port and journal, and require: every insert the router ACKed is
# visible in a scatter SELECT afterwards (zero lost committed writes),
# no transaction left stuck in-doubt on any shard, and clean zero-leak
# shutdown audits for the router and all three shards.
SHARD_DIR="$(mktemp -d)"
SHARD_PIDS=""
SHARD_PORTS=""
for I in 0 1 2; do
  ./_build/default/bin/mood_server.exe --demo-schema --port 0 \
    --port-file "$SHARD_DIR/shard$I.port" \
    --journal "$SHARD_DIR/shard$I.journal" &
  eval "SHARD${I}_PID=$!"
done
for I in 0 1 2; do
  eval "SPID=\$SHARD${I}_PID"
  wait_port "$SHARD_DIR/shard$I.port" "$SPID" "shard $I"
  eval "SHARD${I}_PORT=\$(cat \"$SHARD_DIR/shard$I.port\")"
done
./_build/default/bin/mood_router.exe --port 0 \
  --port-file "$SHARD_DIR/router.port" \
  --decision-log "$SHARD_DIR/router.decisions" \
  --shard "127.0.0.1:$SHARD0_PORT" \
  --shard "127.0.0.1:$SHARD1_PORT" \
  --shard "127.0.0.1:$SHARD2_PORT" &
ROUTER_PID=$!
wait_port "$SHARD_DIR/router.port" "$ROUTER_PID" router
RTPORT="$(cat "$SHARD_DIR/router.port")"
: > "$SHARD_DIR/acked"
# Inserts hash-route to their owning shard; every 6th op is a scatter
# UPDATE, which the router wraps in a cross-shard 2PC transaction.
# Shard 1 is SIGKILLed a third of the way in and restarted on the same
# port and journal half way in; statements that land in the outage
# window may fail (and are not recorded as ACKed) — that is the point.
for I in $(seq 1 24); do
  if [ "$I" -eq 8 ]; then
    kill -9 "$SHARD1_PID"
    wait "$SHARD1_PID" 2>/dev/null || true
  fi
  if [ "$I" -eq 16 ]; then
    ./_build/default/bin/mood_server.exe --demo-schema --port "$SHARD1_PORT" \
      --port-file "$SHARD_DIR/shard1.port2" \
      --journal "$SHARD_DIR/shard1.journal" &
    SHARD1_PID=$!
    wait_port "$SHARD_DIR/shard1.port2" "$SHARD1_PID" "restarted shard 1"
  fi
  if ./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RTPORT" \
       "new VehicleEngine <$((9100 + I)), 4>" > /dev/null 2>&1; then
    echo "$((9100 + I))" >> "$SHARD_DIR/acked"
  fi
  if [ $((I % 6)) -eq 0 ]; then
    ./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RTPORT" \
      "UPDATE VehicleEngine e SET cylinders = 4" > /dev/null 2>&1 || true
  fi
done
[ -s "$SHARD_DIR/acked" ] || { echo "sharding smoke: no insert was ever ACKed"; exit 1; }
# Scatter SELECT through the router; its first statement to the
# restarted shard also performs the SHARD_MAP handshake that resolves
# any in-doubt transaction left by the kill.
./_build/default/bin/mood_cli.exe sql "127.0.0.1:$RTPORT" \
  "SELECT e.size FROM VehicleEngine e WHERE e.cylinders = 4" \
  > "$SHARD_DIR/scatter"
while read -r V; do
  grep -q "$V" "$SHARD_DIR/scatter" \
    || { echo "sharding smoke: ACKed insert $V lost after shard kill"; exit 1; }
done < "$SHARD_DIR/acked"
# No shard may be left holding a prepared transaction.
for I in 0 1 2; do
  eval "SPORT=\$SHARD${I}_PORT"
  ./_build/default/bin/mood_cli.exe top "127.0.0.1:$SPORT" > "$SHARD_DIR/top$I"
  grep -Eq "^shard\.indoubt_open +0\$" "$SHARD_DIR/top$I" \
    || { echo "sharding smoke: shard $I stuck in-doubt"; exit 1; }
done
# Router STATS must show routed and scattered work and the 2PC counters.
./_build/default/bin/mood_cli.exe top "127.0.0.1:$RTPORT" > "$SHARD_DIR/rtop"
grep -q "^shard.routed " "$SHARD_DIR/rtop" || { echo "STATS: no router counters"; exit 1; }
grep -q "^shard.prepares " "$SHARD_DIR/rtop" || { echo "STATS: no 2PC counters"; exit 1; }
grep -q "^router.sessions_active " "$SHARD_DIR/rtop" \
  || { echo "STATS: no router session counters"; exit 1; }
grep -q "^shard0.stmt.select " "$SHARD_DIR/rtop" \
  || { echo "STATS: no merged per-shard counters"; exit 1; }
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "router shutdown was not clean"; exit 1; }
for I in 0 1 2; do
  eval "SPID=\$SHARD${I}_PID"
  kill -TERM "$SPID"
  wait "$SPID" || { echo "shard $I shutdown was not clean"; exit 1; }
done
rm -rf "$SHARD_DIR"

echo "== ok =="
