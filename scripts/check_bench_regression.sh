#!/usr/bin/env bash
# Guards bench_throughput and bench_logops against perf regressions in CI.
#
#   scripts/check_bench_regression.sh [RESULTS_DIR]
#
# Compares the freshly produced BENCH_throughput.json (quick-mode run in
# RESULTS_DIR, default ./bench-results) against the committed full-run
# baseline at the repo root:
#
#   * the open-loop batch-1 row must not fall below ABCAST_BENCH_MIN_RATIO
#     (default 0.5) of the committed batch-1 throughput — the slack absorbs
#     the quick sweep's smaller totals, not a protocol regression.
#
# Virtual-time measurements are deterministic per seed, so a breach is a
# real behavior change, not machine noise.
#
# The E15 batched-I/O rows in BENCH_logops.json are wall-clock, so their
# guards are self-relative within the same run (robust to slow CI hosts):
#
#   * logops_throughput: seglog-group at 4 proposers must beat file-fsync at
#     4 proposers by ABCAST_LOGOPS_MIN_RATIO (default 1.2; the committed
#     full run shows >2x) — group-commit must actually coalesce fdatasyncs;
#   * udp_syscalls: the batched row's send syscalls/datagram must stay below
#     ABCAST_UDP_MAX_SYSCALL_RATIO (default 0.8; unbatched is 1.0 by
#     construction) and the run must have converged.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RESULTS="${1:-${ROOT}/bench-results}"
BASELINE="${ROOT}/BENCH_throughput.json"
CURRENT="${RESULTS}/BENCH_throughput.json"
LOGOPS="${RESULTS}/BENCH_logops.json"
RATIO="${ABCAST_BENCH_MIN_RATIO:-0.5}"
LOGOPS_RATIO="${ABCAST_LOGOPS_MIN_RATIO:-1.2}"
UDP_RATIO="${ABCAST_UDP_MAX_SYSCALL_RATIO:-0.8}"

if [[ ! -f "${BASELINE}" ]]; then
  echo "missing committed baseline: ${BASELINE}" >&2
  exit 2
fi
if [[ ! -f "${CURRENT}" ]]; then
  echo "missing bench results: ${CURRENT} (run scripts/run_bench.sh first)" >&2
  exit 2
fi
if [[ ! -f "${LOGOPS}" ]]; then
  echo "missing bench results: ${LOGOPS} (run scripts/run_bench.sh first)" >&2
  exit 2
fi

python3 - "${BASELINE}" "${CURRENT}" "${RATIO}" <<'PYEOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
ratio = float(sys.argv[3])


def rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def throughput(path, experiment, **match):
    for r in rows(path):
        if r.get("experiment") == experiment and all(
            r.get(k) == v for k, v in match.items()
        ):
            return r["throughput_per_sec"]
    return None


base = throughput(baseline_path, "throughput_batch_sweep", batch=1)
cur = throughput(current_path, "throughput_batch_sweep", batch=1)
if base is None:
    sys.exit(f"{baseline_path}: no throughput_batch_sweep batch=1 row")
if cur is None:
    sys.exit(f"{current_path}: no throughput_batch_sweep batch=1 row")
floor = base * ratio
print(
    f"batch-1 open-loop: current {cur:.1f} msgs/s, committed {base:.1f}, "
    f"floor {floor:.1f} (ratio {ratio})"
)
if cur < floor:
    sys.exit(
        f"REGRESSION: batch-1 throughput {cur:.1f} msgs/s fell below "
        f"{ratio} x committed baseline ({base:.1f} msgs/s)"
    )
print("bench regression guard: OK")
PYEOF

python3 - "${LOGOPS}" "${LOGOPS_RATIO}" "${UDP_RATIO}" <<'PYEOF'
import json
import sys

logops_path = sys.argv[1]
logops_ratio = float(sys.argv[2])
udp_ratio = float(sys.argv[3])

with open(logops_path) as f:
    rows = [json.loads(line) for line in f if line.strip()]


def one(experiment, **match):
    for r in rows:
        if r.get("experiment") == experiment and all(
            r.get(k) == v for k, v in match.items()
        ):
            return r
    sys.exit(f"{logops_path}: no {experiment} row matching {match}")


group = one("logops_throughput", backend="seglog-group", threads=4)
file_f = one("logops_throughput", backend="file-fsync", threads=4)
speedup = group["ops_per_sec"] / max(file_f["ops_per_sec"], 1e-9)
print(
    f"logged ops, 4 proposers: seglog-group {group['ops_per_sec']:.0f} ops/s "
    f"({group['fsyncs']} fsyncs), file-fsync {file_f['ops_per_sec']:.0f} "
    f"ops/s ({file_f['fsyncs']} fsyncs) -> {speedup:.2f}x (floor "
    f"{logops_ratio}x)"
)
if speedup < logops_ratio:
    sys.exit(
        f"REGRESSION: group-commit speedup {speedup:.2f}x fell below "
        f"{logops_ratio}x over fsync-per-put at 4 proposers"
    )
if group["fsyncs"] >= group["ops"]:
    sys.exit(
        f"REGRESSION: group-commit issued {group['fsyncs']} fsyncs for "
        f"{group['ops']} ops — no coalescing happened"
    )

batched = one("udp_syscalls", batched=True)
if not batched.get("converged", False):
    sys.exit("REGRESSION: batched UDP run did not converge")
ratio = batched["syscalls_per_datagram"]
print(
    f"batched UDP: {batched['send_syscalls']} send syscalls / "
    f"{batched['send_datagrams']} datagrams = {ratio:.3f} "
    f"(ceiling {udp_ratio})"
)
if ratio >= udp_ratio:
    sys.exit(
        f"REGRESSION: batched send syscalls/datagram {ratio:.3f} >= "
        f"{udp_ratio} — sendmmsg batching stopped coalescing"
    )
print("batched-I/O regression guard: OK")
PYEOF
