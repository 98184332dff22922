#!/usr/bin/env sh
# smoke.sh <admin|systab|trace|server|all>: end-to-end checks of the
# shipped binaries, one suite per observable surface. Every suite builds what
# it needs into one temp dir, boots pcserver, drives it with pcsh, asserts
# through the same interfaces a user has (SQL, the wire protocol, HTTP, files
# on disk) and tears everything down on exit.
#
#   admin    pcserver -admin: /metrics families, shape ledger, pprof labels, heap
#   systab   pcsh: pc.query_log / pc.cache_stats / pc.table_storage via SQL
#   trace    pcserver -slow 1ns -log + pcsh: trace retention, pc.slo, pc.runtime, log lines
#   server   pcserver + pcsh over TCP: sessions, plan cache, errors, drain
set -eu
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
PIDS=""
SUITE=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

# build CMD...: compile each command once per invocation.
build() {
    for c in "$@"; do
        [ -x "$BIN/$c" ] || go build -o "$BIN/$c" "./cmd/$c"
    done
}

# fail MESSAGE [FILE...]: print the files (server log, shell output), then die.
fail() {
    msg="$1"
    shift
    for f in "$@"; do cat "$f" >&2; done
    echo "$SUITE smoke: FAIL ($msg)" >&2
    exit 1
}

# forget PID: drop a finished process from the teardown list.
forget() {
    kept=""
    for p in $PIDS; do
        [ "$p" = "$1" ] || kept="$kept $p"
    done
    PIDS="$kept"
}

# stop PID: terminate a background process and forget it.
stop() {
    kill "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
    forget "$1"
}

# val_after KEY: each probe prints a one-word header line followed by the
# value line; print the value after the header matching KEY.
val_after() {
    awk -v key="$1" 'f{print $NF; exit} $0 ~ key{f=1}' "$BIN/out"
}

# boot_server FLAGS...: start pcserver on an ephemeral port and wait until it
# is listening. -addr/-admin :0 make the kernel pick the ports, so they are
# parsed back from the log into ADDR and (when -admin was passed) ADMIN.
boot_server() {
    build pcserver pcsh
    "$BIN/pcserver" -addr 127.0.0.1:0 "$@" >"$BIN/server.log" 2>&1 &
    SRV_PID=$!
    PIDS="$PIDS $SRV_PID"
    want_admin=0
    case " $* " in *" -admin "*) want_admin=1 ;; esac
    ADDR=""
    ADMIN=""
    i=0
    while [ $i -lt 120 ]; do
        ADDR="$(awk '/^listening on /{print $3; exit}' "$BIN/server.log")"
        ADMIN="$(awk '/^admin on /{print $3; exit}' "$BIN/server.log")"
        [ -n "$ADDR" ] && { [ $want_admin -eq 0 ] || [ -n "$ADMIN" ]; } && break
        kill -0 "$SRV_PID" 2>/dev/null || fail "server exited before listening" "$BIN/server.log"
        sleep 0.25
        i=$((i + 1))
    done
    [ -n "$ADDR" ] && { [ $want_admin -eq 0 ] || [ -n "$ADMIN" ]; } ||
        fail "server never started listening" "$BIN/server.log"
    ADMIN="${ADMIN#http://}"
    ADMIN="${ADMIN%/metrics}"
}

# q STMT: run one statement in a fresh session, print the full framed reply.
q() {
    printf '%s\n' "$1" | "$BIN/pcsh" -addr "$ADDR" -timeout 30s
}

# val STMT: single-row single-column result value (line 3: ok, header, value).
val() {
    q "$1" | sed -n 3p
}

# The admin endpoint, booted once: /metrics carries the engine, cache and
# runtime families, pc.query_shapes aggregates attributed CPU per shape, an
# on-demand /debug/pprof/profile capture taken under load carries the
# query_id/shape pprof labels on worker samples, and /debug/pprof/heap serves
# a parseable heap profile.
smoke_admin() {
    boot_server -dataset ssb -sf 0.01 -admin 127.0.0.1:0
    # A few attributed queries of two shapes: enough for the shape ledger.
    q 'select sum(lo_revenue) as s from lineorder where lo_quantity < 30' >/dev/null
    q 'select sum(lo_revenue) as s from lineorder where lo_quantity < 10' >/dev/null
    q 'select count(*) as n from customer' >/dev/null

    # pc.query_shapes: the workload shapes must be there with measured CPU.
    shapes="$(val 'select count(*) as n from pc.query_shapes where calls > 0 and cpu_us > 0')"
    [ -n "$shapes" ] && [ "$shapes" -ge 2 ] 2>/dev/null ||
        fail "pc.query_shapes has no attributed shapes (got '$shapes')" "$BIN/server.log"
    # The two sum() runs normalize to one shape with two calls.
    topcalls="$(val 'select calls, cpu_us from pc.query_shapes order by cpu_us desc limit 1' | awk '{print $1}')"
    [ -n "$topcalls" ] && [ "$topcalls" -ge 2 ] 2>/dev/null ||
        fail "top shape did not fold the repeated template (calls='$topcalls')" "$BIN/server.log"

    # Prometheus exposition: the engine, cache and runtime families are there
    # (TestAdminEndpoint validates the format).
    curl -fsS -o "$BIN/metrics.txt" "http://$ADMIN/metrics" ||
        fail "/metrics not served" "$BIN/server.log"
    for family in predcache_queries_total predcache_cache_hits_total predcache_runtime_goroutines; do
        grep -q "^$family " "$BIN/metrics.txt" || fail "/metrics lacks $family" "$BIN/metrics.txt"
    done

    # Labelled on-demand capture: hammer one shape from a background session
    # while /debug/pprof/profile samples for 2s, then the profile's tag
    # summary must show the query_id and shape label keys on the sampled
    # stacks. CPU sampling is statistical, so retry a few times before
    # declaring failure.
    i=0
    while [ $i -lt 2000 ]; do
        printf 'select sum(lo_revenue) as s from lineorder where lo_quantity < 30\n'
        i=$((i + 1))
    done >"$BIN/load.sql"
    labels_ok=0
    attempt=0
    while [ $attempt -lt 3 ]; do
        "$BIN/pcsh" -addr "$ADDR" -timeout 120s <"$BIN/load.sql" >/dev/null 2>&1 &
        load_pid=$!
        PIDS="$PIDS $load_pid"
        sleep 0.2
        curl -fsS -o "$BIN/cpu.pprof" "http://$ADMIN/debug/pprof/profile?seconds=2" || true
        stop "$load_pid"
        if [ -s "$BIN/cpu.pprof" ]; then
            tags="$(go tool pprof -tags "$BIN/cpu.pprof" 2>/dev/null || true)"
            if printf '%s' "$tags" | grep -q 'query_id' &&
                printf '%s' "$tags" | grep -q 'shape'; then
                labels_ok=1
                break
            fi
        fi
        attempt=$((attempt + 1))
        sleep 1
    done
    [ "$labels_ok" -eq 1 ] || fail "CPU profile carries no query_id/shape labels" "$BIN/server.log"

    # Heap profile endpoint: must serve a profile go tool pprof can parse.
    curl -fsS -o "$BIN/heap.pprof" "http://$ADMIN/debug/pprof/heap" ||
        fail "/debug/pprof/heap not served" "$BIN/server.log"
    go tool pprof -top "$BIN/heap.pprof" >/dev/null 2>&1 || fail "heap profile unparseable" "$BIN/server.log"

    kill -TERM "$SRV_PID"
    stop "$SRV_PID"
    echo "admin smoke: OK (shapes=$shapes, top-shape calls=$topcalls, labelled profile after $((attempt + 1)) attempt(s))"
}

# Runs a short workload through pcsh, then asserts that pc.query_log
# recorded exactly the issued queries and that the cache and storage system
# tables answer through plain SQL.
smoke_systab() {
    boot_server -dataset ssb -sf 0.005
    "$BIN/pcsh" -addr "$ADDR" -timeout 30s >"$BIN/out" <<'EOF'
select count(*) from lineorder;
select count(*) from lineorder where lo_quantity < 10;
select count(*) from lineorder where lo_quantity < 10;
select count(*) as qcount from pc.query_log;
select count(*) as repeats from pc.query_log where cache_hits > 0;
select count(*) as storcols from pc.table_storage where table_name = 'lineorder';
select enabled from pc.cache_stats;
\q
EOF
    qcount="$(val_after qcount)"
    [ "$qcount" = "3" ] || fail "pc.query_log counted '$qcount' queries, want 3" "$BIN/out"
    repeats="$(val_after repeats)"
    [ "$repeats" -ge 1 ] || fail "no cache hit recorded for the repeated query" "$BIN/out"
    storcols="$(val_after storcols)"
    [ "$storcols" -ge 1 ] || fail "pc.table_storage empty for lineorder" "$BIN/out"
    enabled="$(val_after enabled)"
    [ "$enabled" = "true" ] || fail "pc.cache_stats reports enabled='$enabled'" "$BIN/out"
    kill -TERM "$SRV_PID"
    stop "$SRV_PID"
    echo "systab smoke: OK (3 queries logged, $repeats cache-hit query, $storcols storage columns)"
}

# Boots the server with a 1ns slow-query threshold (every query's trace is
# retained as slow) and a JSON log file, runs a short workload including a
# failing query through pcsh, then asserts via SQL that pc.traces /
# pc.trace_spans / pc.slo / pc.runtime answer, that the failed query was
# retained with its error, and that the log lines carry trace ids.
smoke_trace() {
    log="$BIN/pcserver.jsonl"
    boot_server -dataset ssb -sf 0.005 -slow 1ns -log "$log"
    "$BIN/pcsh" -addr "$ADDR" -timeout 30s >"$BIN/out" <<'EOF'
select count(*) from lineorder;
select count(*) from lineorder where lo_quantity < 10;
select count(*) from nosuch_table;
select count(*) as slowtraces from pc.traces where reason = 'slow';
select count(*) as errtraces from pc.traces where reason = 'error';
select count(*) as joinspans from pc.trace_spans s, pc.query_log q where s.trace_id = q.seq and q.error <> '';
select count(*) as slorows from pc.slo where sample_count > 0;
select count(*) as runtimerows from pc.runtime;
\q
EOF
    slow="$(val_after slowtraces)"
    [ "$slow" -ge 2 ] || fail "only '$slow' slow traces retained, want >= 2" "$BIN/out"
    errs="$(val_after errtraces)"
    [ "$errs" = "1" ] || fail "'$errs' error traces retained, want exactly 1" "$BIN/out"
    joinspans="$(val_after joinspans)"
    [ "$joinspans" -ge 1 ] || fail "failed query has no spans via pc.trace_spans x pc.query_log" "$BIN/out"
    slorows="$(val_after slorows)"
    [ "$slorows" -ge 1 ] || fail "pc.slo has no populated class" "$BIN/out"
    runtimerows="$(val_after runtimerows)"
    [ "$runtimerows" -ge 1 ] || fail "pc.runtime returned no sample" "$BIN/out"
    kill -TERM "$SRV_PID"
    stop "$SRV_PID"
    # The structured log must carry correlated slow-query and failure lines.
    grep -q '"msg":"slow query"' "$log" || fail "no slow-query log line" "$log"
    grep -q '"msg":"query failed"' "$log" || fail "no query-failed log line" "$log"
    grep -q '"trace_id":' "$log" || fail "log lines carry no trace_id" "$log"
    echo "trace smoke: OK ($slow slow traces, $errs error trace, $joinspans error spans, $slorows SLO rows)"
}

# Drives the wire protocol over a real TCP socket: results are correct and
# stable across sessions, a repeated template hits the plan cache, prepared
# statements execute, statement errors come back as "err" lines without
# killing the session, pc.sessions sees the live connection, and SIGTERM
# drains to a clean exit.
smoke_server() {
    boot_server -dataset ssb -sf 0.005
    # Correctness and cross-session stability: the same count twice, then the
    # plan cache must show the repeat as a hit on the normalized template.
    n1="$(val 'select count(*) as n from lineorder where lo_quantity < 10')"
    n2="$(val 'select count(*) as n from lineorder where lo_quantity < 10')"
    [ -n "$n1" ] && [ "$n1" -gt 0 ] 2>/dev/null || fail "bad count: '$n1'"
    [ "$n1" = "$n2" ] || fail "count changed across sessions: $n1 vs $n2"
    # A third run with a different literal must still be a template hit.
    n3="$(val 'select count(*) as n from lineorder where lo_quantity < 50')"
    [ "$n3" -ge "$n1" ] 2>/dev/null || fail "looser predicate returned fewer rows: $n3 < $n1"
    hits="$(val 'select count(*) as n from pc.plan_cache where hits > 0')"
    [ -n "$hits" ] && [ "$hits" -ge 1 ] 2>/dev/null ||
        fail "no plan-cache template recorded a hit (templates-with-hits='$hits')"

    # One session: ping, a prepared statement, a statement error that must not
    # kill the session, and the session observing itself in pc.sessions.
    "$BIN/pcsh" -addr "$ADDR" -timeout 30s >"$BIN/session.out" <<'EOF'
\ping
\prepare q1 select count(*) as n from customer
\exec q1
select lo_nope from lineorder
select count(*) as n from pc.sessions
\quit
EOF
    grep -q '^pong$' "$BIN/session.out" || fail "no pong"
    grep -q '^err ' "$BIN/session.out" || fail "bad statement produced no err line"
    grep -q '^bye$' "$BIN/session.out" || fail "session died before \\quit (no bye)"
    # The last single-column "n" result in the stream is the pc.sessions count.
    sessions="$(awk '/^n$/{getline; last=$0} END{print last}' "$BIN/session.out")"
    [ -n "$sessions" ] && [ "$sessions" -ge 1 ] 2>/dev/null ||
        fail "pc.sessions did not see the live session: '$sessions'"

    # Graceful drain: SIGTERM, clean exit, final stats line.
    kill -TERM "$SRV_PID"
    rc=0
    wait "$SRV_PID" || rc=$?
    forget "$SRV_PID"
    [ "$rc" -eq 0 ] || fail "server exited $rc on SIGTERM" "$BIN/server.log"
    grep -q '^served ' "$BIN/server.log" || fail "no final stats after drain"
    echo "server smoke: OK ($n1 rows under lo_quantity<10, plan-cache hits=$hits)"
}

[ $# -eq 1 ] || { echo "usage: $0 <admin|systab|trace|server|all>" >&2; exit 2; }
suites="$1"
[ "$1" = all ] && suites="admin systab trace server"
for SUITE in $suites; do
    case "$SUITE" in
    admin | systab | trace | server) "smoke_$SUITE" ;;
    *) echo "usage: $0 <admin|systab|trace|server|all>" >&2; exit 2 ;;
    esac
done
