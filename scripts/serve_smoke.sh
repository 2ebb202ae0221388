#!/usr/bin/env bash
# End-to-end smoke of the HTTP front end (CI job "serve-smoke"):
#
#   1. start `python -m repro serve` (asyncio kernel), run the paper's
#      Fig-3 query (QUERY2) over HTTP with per-request tracing, and
#      validate the exported Chrome trace with `python -m repro.obs.validate`;
#   2. restart the server on the multi-process kernel (`--kernel process`)
#      and check the same query returns the identical bag of rows.
#
# Artifacts (server logs, the trace, both row bags) land in $SMOKE_DIR
# (default: serve-smoke/). Run locally as: bash scripts/serve_smoke.sh
set -euo pipefail

SMOKE_DIR="${SMOKE_DIR:-serve-smoke}"
PROFILE="${SMOKE_PROFILE:-fast}"
export PYTHONPATH="${PYTHONPATH:-src}"
mkdir -p "$SMOKE_DIR"

wait_for_server() { # logfile
    for _ in $(seq 1 100); do
        grep -q "serving on" "$1" && return 0
        sleep 0.2
    done
    echo "server did not start; log:" >&2
    cat "$1" >&2
    return 1
}

server_port() { # logfile
    grep -oE 'http://127\.0\.0\.1:[0-9]+' "$1" | head -1 | grep -oE '[0-9]+$'
}

run_query() { # port rows-out extra-json-fields...
    python - "$@" <<'PY'
import http.client, json, sys

port, rows_out = int(sys.argv[1]), sys.argv[2]
request = {
    "sql": None,
    "options": {"mode": "parallel", "fanouts": [4, 3], "name": "Query2"},
}
for field in sys.argv[3:]:
    request.update(json.loads(field))
from repro import QUERY2_SQL
request["sql"] = QUERY2_SQL

connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
connection.request("POST", "/sql", body=json.dumps(request))
response = connection.getresponse()
payload = response.read().decode()
assert response.status == 200, payload[:500]
lines = payload.strip().split("\n")
header, trailer = json.loads(lines[0]), json.loads(lines[-1])
rows = sorted(lines[1:-1])
assert trailer["rows"] == len(rows) > 0, trailer
with open(rows_out, "w") as handle:
    handle.write("\n".join(rows) + "\n")
print(f"columns={header['columns']} rows={trailer['rows']} "
      f"calls={trailer['total_calls']} elapsed={trailer['elapsed']:.2f} model s")
if "trace_file" in trailer:
    print(f"trace_file={trailer['trace_file']}")
    with open(rows_out + ".trace_path", "w") as handle:
        handle.write(trailer["trace_file"])

connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
connection.request("GET", "/stats")
stats = json.loads(connection.getresponse().read())
print(f"engine stats: queries={stats['queries']} "
      f"warm_leases={stats['warm_leases']} cold_starts={stats['cold_starts']}")
PY
}

stop_server() { # pid
    kill -TERM "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
}

echo "== asyncio-kernel server: traced Fig-3 query =="
python -m repro serve --port 0 --profile "$PROFILE" \
    --trace-dir "$SMOKE_DIR/traces" >"$SMOKE_DIR/serve-asyncio.log" 2>&1 &
SERVER_PID=$!
trap 'stop_server $SERVER_PID' EXIT
wait_for_server "$SMOKE_DIR/serve-asyncio.log"
PORT=$(server_port "$SMOKE_DIR/serve-asyncio.log")
run_query "$PORT" "$SMOKE_DIR/rows-asyncio.txt" '{"trace": true}'
stop_server "$SERVER_PID"

TRACE_FILE=$(cat "$SMOKE_DIR/rows-asyncio.txt.trace_path")
echo "== validating exported trace: $TRACE_FILE =="
python -m repro.obs.validate "$TRACE_FILE"

echo "== process-kernel server: same query, same rows =="
python -m repro serve --port 0 --kernel process --workers 2 --profile "$PROFILE" \
    --trace-dir "$SMOKE_DIR/traces" >"$SMOKE_DIR/serve-process.log" 2>&1 &
SERVER_PID=$!
wait_for_server "$SMOKE_DIR/serve-process.log"
PORT=$(server_port "$SMOKE_DIR/serve-process.log")
run_query "$PORT" "$SMOKE_DIR/rows-process.txt"
stop_server "$SERVER_PID"
trap - EXIT

diff "$SMOKE_DIR/rows-asyncio.txt" "$SMOKE_DIR/rows-process.txt"
echo "== OK: process kernel returned the identical bag of rows =="
