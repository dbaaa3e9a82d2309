#!/bin/sh
# Gate on the BENCH_runtime.json record: the file must parse as JSON,
# no object in it may repeat a key, and every bench suite's top-level
# section must be present.  A suite that truncates the file, or an
# appending writer that re-adds its key, fails here.
#
# Usage: sh scripts/check_bench.sh BENCH_runtime.json
set -eu

FILE=${1:-BENCH_runtime.json}

[ -f "$FILE" ] || { echo "check-bench: $FILE not found" >&2; exit 1; }

python3 - "$FILE" <<'EOF'
import json, sys

path = sys.argv[1]
dups = []

def no_duplicates(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            dups.append(k)
        seen.add(k)
    return dict(pairs)

try:
    with open(path) as f:
        record = json.load(f, object_pairs_hook=no_duplicates)
except ValueError as e:
    sys.exit(f"check-bench: {path} does not parse: {e}")

if dups:
    sys.exit(f"check-bench: duplicate keys in {path}: {', '.join(sorted(set(dups)))}")

if not isinstance(record, dict):
    sys.exit(f"check-bench: {path} is not a JSON object")

REQUIRED = ["results", "metrics", "service", "serve", "fabric", "sketch", "hybrid"]
missing = [k for k in REQUIRED if k not in record]
if missing:
    sys.exit(f"check-bench: {path} is missing sections: {', '.join(missing)}")

print(f"check-bench: {path} ok ({len(record)} top-level keys, all {len(REQUIRED)} suite sections)")
EOF
