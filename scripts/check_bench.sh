#!/bin/sh
# Gate on the BENCH_runtime.json record: the file must parse as JSON,
# no object in it may repeat a key, and every bench suite's section must
# be present.  A suite that truncates the file, or an appending writer
# that re-adds its key, fails here.
#
# Each section must also keep the measurement discipline of
# bench/main.ml: a complete "run" header, at least one measured row,
# and on every measured row (an object with "oversubscribed")
# min <= median <= max ops/s and oversubscribed = domains > nproc;
# unless the header says smoke, at least 5 repeats of at least 0.2 s,
# and a header that is not smoke must say dirty: false, so every full
# row was measured on a committed revision that can be checked out.
#
# A full section must also be recorded at the code it times: COVERS
# names, per suite, the paths whose code runs in its timed region
# (bench/main.ml included), and no commit after the section's
# git_revision may touch them (git log REV..HEAD -- PATHS).  The
# staleness check needs the revision in this clone's history (a full
# fetch); it is skipped when git_revision is null or there is no git
# repository.
#
# Usage: sh scripts/check_bench.sh BENCH_runtime.json
set -eu

FILE=${1:-BENCH_runtime.json}

[ -f "$FILE" ] || { echo "check-bench: $FILE not found" >&2; exit 1; }

python3 - "$FILE" <<'EOF'
import json, subprocess, sys

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

REQUIRED = ["runtime", "service", "fabric"]
missing = [k for k in REQUIRED if k not in record]
if missing:
    sys.exit(f"check-bench: {path} is missing sections: {', '.join(missing)}")

# The paths whose code runs inside each suite's timed region.
COVERS = {
    "runtime": ["bench/main.ml", "lib/runtime", "lib/network"],
    "service": ["bench/main.ml", "lib/service", "lib/runtime", "lib/network"],
    "fabric": ["bench/main.ml", "lib/fabric", "lib/service", "lib/runtime", "lib/network"],
}

def git(*args):
    try:
        r = subprocess.run(["git", *args], capture_output=True, text=True)
    except OSError:
        return None
    return r

inside = git("rev-parse", "--is-inside-work-tree")
has_git = inside is not None and inside.returncode == 0

def stale(name, rev):
    """None if the section is current, else why it is not."""
    if rev is None or not has_git:
        return None
    if git("cat-file", "-e", rev + "^{commit}").returncode != 0:
        return f"git_revision {rev[:12]} is not in this clone's history (fetch it in full)"
    log = git("log", "--format=%h %s", f"{rev}..HEAD", "--", *COVERS[name])
    if log.returncode != 0:
        return f"git log {rev[:12]}..HEAD failed: {log.stderr.strip()}"
    if log.stdout.strip():
        changed = log.stdout.strip().splitlines()
        return (f"recorded at {rev[:12]}, but {len(changed)} later commit(s) touch "
                f"{' '.join(COVERS[name])}: {'; '.join(changed[:3])}")
    return None

def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)

HEADER = {
    "schema_version": is_int,
    "git_revision": lambda v: v is None or isinstance(v, str),
    "dirty": lambda v: v is None or isinstance(v, bool),
    "nproc": lambda v: is_int(v) and v >= 1,
    "ocaml_version": lambda v: isinstance(v, str),
    "smoke": lambda v: isinstance(v, bool),
}

def measured_rows(v):
    if isinstance(v, dict):
        if "oversubscribed" in v:
            yield v
        for x in v.values():
            yield from measured_rows(x)
    elif isinstance(v, list):
        for x in v:
            yield from measured_rows(x)

errors = []
total = 0
for name in REQUIRED:
    section = record[name]
    run = section.get("run") if isinstance(section, dict) else None
    if not isinstance(run, dict):
        errors.append(f"{name}: no run header")
        continue
    bad = [k for k, ok in HEADER.items() if k not in run or not ok(run[k])]
    if bad:
        errors.append(f"{name}: run header lacks or mistypes {', '.join(bad)}")
        continue
    if not run["smoke"] and run["dirty"] is not False:
        errors.append(f"{name}: a full run must be recorded at a clean revision (dirty: {json.dumps(run['dirty'])})")
    if not run["smoke"]:
        why = stale(name, run["git_revision"])
        if why:
            errors.append(f"{name}: a full run must be recorded at the code it times; {why}")
    rows = list(measured_rows(section))
    if not rows:
        errors.append(f"{name}: no measured rows")
    total += len(rows)
    for i, r in enumerate(rows):
        where = f"{name} row {i}"
        try:
            rate, domains, secs, repeats = r["ops_per_sec"], r["domains"], r["seconds"], r["repeats"]
            if not rate["min"] <= rate["median"] <= rate["max"]:
                errors.append(f"{where}: ops/s min <= median <= max fails ({rate})")
            if r["oversubscribed"] != (domains > run["nproc"]):
                errors.append(f"{where}: oversubscribed is not domains ({domains}) > nproc ({run['nproc']})")
            if len(secs) != repeats:
                errors.append(f"{where}: {len(secs)} seconds for {repeats} repeats")
            if not run["smoke"]:
                if repeats < 5:
                    errors.append(f"{where}: {repeats} repeats, a full run needs >= 5")
                if min(secs) < 0.2:
                    errors.append(f"{where}: a repeat of {min(secs):.3f} s, a full run needs >= 0.2 s")
        except (KeyError, TypeError, ValueError) as e:
            errors.append(f"{where}: malformed measured row ({e!r})")

if errors:
    sys.exit("check-bench: " + path + "\n  " + "\n  ".join(errors))

print(f"check-bench: {path} ok ({len(record)} top-level keys, all {len(REQUIRED)} suite sections, "
      f"{total} measured rows)")
EOF
