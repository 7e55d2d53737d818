"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The gate fires on planted faults: a certificate with one byte changed on
   disk before re-verification, and a point set with a collinear triple.
2. Traced call counts repeat exactly across two runs with the same seed,
   and the printed metric names are the ones BENCHMARK.json declares.
3. In a traced pass, the self times of all spans add up to the root span's
   duration, which is the traced wall time of the pass.

Prints one line per check and exits with code 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7
RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def small_certify(work_dir: Path) -> W.Certify:
    """A certify workload cut down to a few groups, published pairs first."""
    workload = W.Certify(SEED, work_dir)
    workload.groups = [g for g in workload.groups if g[0]] + workload.groups[:4]
    workload.pairs = [pair for _, pairs in workload.groups for pair in pairs]
    return workload


def planted_certificate_fault(work_dir: Path) -> None:
    """Change one byte of the first stored digit trace: a position of 7."""
    original = W.SEARCH.store_certificate
    tampered: list[str] = []

    def store_and_tamper(payload, directory):
        digest = original(payload, directory)
        if not tampered and payload["method"] == "digit" and payload["trace"]["steps"]:
            path = Path(directory) / f"{digest}.json"
            text = path.read_text()
            at = text.index('"position": ') + len('"position": ')
            path.write_text(text[:at] + "7" + text[at + 1:])
            tampered.append(path.name)
        return digest

    gate = W.Gate()
    W.SEARCH.store_certificate = store_and_tamper
    try:
        small_certify(work_dir).run_pass(gate)
    finally:
        W.SEARCH.store_certificate = original
    hit = [f for f in gate.failures if tampered and tampered[0] in f]
    report(bool(tampered) and gate.failed == 1 and bool(hit),
           f"certify gate rejects a certificate with one byte changed "
           f"({gate.failed} of {gate.attempted} checks failed)")


def planted_collinear_fault(work_dir: Path) -> None:
    workload = W.Verify(SEED, work_dir)
    workload.subset = sorted(workload.subset + [workload.planted])
    gate = W.Gate()
    workload.run_pass(gate)
    report(gate.failed >= 1 and any("subset rejected" in f for f in gate.failures),
           f"verify gate rejects a point set with a collinear triple "
           f"({gate.failed} of {gate.attempted} checks failed)")


def run_metrics(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.splitlines()[-1])["metrics"]


def declared(key: str) -> set:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[key]}


def calls_repeat(name: str) -> None:
    first, second = run_metrics(name, 1), run_metrics(name, 1)
    report(set(first) == declared("per_layer"),
           f"{name}: traced metric names match the per_layer list")
    calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")}
             for m in (first, second)]
    report(calls[0] == calls[1] and sum(calls[0].values()) > 1,
           f"{name}: {len(calls[0])} traced call counts repeat across two runs")


def self_times_add_up(workload: W.Workload) -> None:
    tracer = tracing.Tracer()
    workload.run_pass(W.Gate(), tracer=tracer)
    root = tracer.spans[0]
    wall = root.end - root.start
    total = sum(span.self_s for span in tracer.spans)
    tolerance = len(tracer.spans) * max(time.get_clock_info("perf_counter").resolution, 1e-9)
    report(root.name == tracing.ROOT and abs(total - wall) <= tolerance,
           f"{workload.name}: self times of {len(tracer.spans)} spans sum to "
           f"{total:.6f} s, traced wall {wall:.6f} s")


def main() -> int:
    work_dir = HERE.parent / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    planted_certificate_fault(work_dir)
    planted_collinear_fault(work_dir)
    report(set(run_metrics("sweep", 0)) == declared("end_to_end"),
           "sweep: untraced metric names match the end_to_end list")
    for name in W.WORKLOADS:
        calls_repeat(name)
    self_times_add_up(W.Sweep(SEED, work_dir))
    self_times_add_up(small_certify(work_dir))
    self_times_add_up(W.Verify(SEED, work_dir))
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
