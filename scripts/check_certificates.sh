#!/bin/sh
# Gate on the LINT_certificates.json payload before it is uploaded as a
# CI artifact: the schema must be the expected version, and no
# certificate may be refuted or otherwise not-ok — a row turning
# Refuted means a certified family regressed.
#
# Usage: sh scripts/check_certificates.sh LINT_certificates.json
set -eu

FILE=${1:-LINT_certificates.json}

[ -f "$FILE" ] || { echo "check-certificates: $FILE not found" >&2; exit 1; }

python3 - "$FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    payload = json.load(f)

EXPECTED_SCHEMA = 3
schema = payload.get("schema_version")
if schema != EXPECTED_SCHEMA:
    sys.exit(f"check-certificates: schema_version {schema!r}, expected {EXPECTED_SCHEMA}")

bad = []
for row in payload.get("certificates", []):
    refuted = str(row.get("evidence", "")).startswith("refuted")
    if refuted or not row.get("ok", False):
        bad.append(f"{row.get('subject')}: ok={row.get('ok')} "
                   f"evidence={row.get('evidence')}")

if bad:
    print("check-certificates: unexpected certificate rows:", file=sys.stderr)
    for line in bad:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)

n = len(payload.get("certificates", []))
print(f"check-certificates: {n} rows ok (schema v{schema})")
EOF
