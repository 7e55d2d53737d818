"""Benchmark entry point for the affinecaps package.

    python3 perfbench/run.py --workload {sweep,certify,verify} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a source checkout: the package is imported from
the checkout's ``src`` directory, never from an installed copy, and without
that directory the script exits with code 2 before printing a result.

The run repeats passes of the workload until ``--seconds`` is used up and
reports medians over the passes; pass times are corrected for host speed
(see ``hostspeed.py``). Set-up, the import of the package in a fresh
interpreter scaled by a fixed reference import timed just before it, is
measured before the first pass and after each pass. Every pass is checked;
the count of checks and of failed checks becomes ``attempted`` and
``failed``.
With ``--trace 1`` untraced and traced passes alternate, the result holds
per-layer numbers instead of end-to-end ones, and the spans of the first
traced pass are written to ``.perfbench_work/spans-<workload>-seed<n>.jsonl``.

Standard output: a line of run metadata and the workload's named timings,
then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Import probes before the first pass and after every pass, so that the
# set-up median samples the host over the whole run, as the passes do.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2

IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import affinecaps.capset, affinecaps.cli, affinecaps.cone, affinecaps.equivalence
import affinecaps.progressions, affinecaps.reducibility, affinecaps.search, affinecaps.zp
elapsed = time.perf_counter() - t0
if not affinecaps.__file__.startswith(sys.argv[1]):
    raise SystemExit("affinecaps imported from " + affinecaps.__file__)
print(repr(elapsed))
"""
# A fixed import that the program cannot change, timed in its own fresh
# interpreter just before each package import. On a shared 2-vCPU Xeon VM
# the median package import time of 15-probe blocks ranged 1.74x over five
# minutes; scaled by this reference it ranged 1.18x. REFERENCE_NOMINAL_S is
# about the reference's time on that VM when unloaded.
REFERENCE_PROBE = """
import time
t0 = time.perf_counter()
import argparse, asyncio, concurrent.futures, decimal, email.mime.multipart, http.server
import logging.handlers, tarfile, unittest, xml.dom.minidom, zipfile
print(repr(time.perf_counter() - t0))
"""
REFERENCE_NOMINAL_S = 0.066


def probe_seconds(code: str) -> float:
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def import_seconds(count: int) -> list[tuple[float, float]]:
    """(package import, reference import) times; the package's includes its
    submodules and numpy."""
    runs = []
    for _ in range(count):
        reference = probe_seconds(REFERENCE_PROBE)
        runs.append((probe_seconds(IMPORT_PROBE), reference))
    return runs


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg_start": list(os.getloadavg()),
    }


def repeat(seconds: float, run_one, minimum: int) -> list:
    """Runs passes while the next one is expected to end within the budget."""
    results, start, last = [], time.perf_counter(), 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        last = time.perf_counter() - t0
    return results


def end_to_end(workload, gate, seconds: float) -> tuple[dict, dict]:
    import hostspeed

    setup = import_seconds(SETUP_PROBES_FIRST)
    peak_rss = []

    def run_one(i: int) -> dict:
        probe = hostspeed.HostProbe(workload.kernel)
        result = workload.run_pass(gate, probe=probe)
        result["pass_norm_s"] = probe.norm_s
        result["kernel_s"] = statistics.median(probe.samples)
        if i == 0:
            # Later passes add allocator fragmentation, not program needs.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        setup.extend(import_seconds(SETUP_PROBES_PER_PASS))
        return result

    results = repeat(seconds, run_one, minimum=1)
    metrics = {
        "pass_norm_s": (statistics.median(r["pass_norm_s"] for r in results), "s"),
        "setup_s": (statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in setup), "s"),
        "peak_rss_mb": (peak_rss[0], "MB"),
    }
    named = {
        "pass_s": (statistics.median(r["pass_s"] for r in results), "s"),
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s"),
        "pass_s_each": [r["pass_s"] for r in results],
        "kernel_s_each": [r["kernel_s"] for r in results],
        **workload.named(results),
    }
    return metrics, named


def traced(workload, gate, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    def run_one(i: int) -> dict:
        if i % 2 == 0:
            return workload.run_pass(gate, serial_only=True)
        tracer = tracing.Tracer()
        result = workload.run_pass(gate, tracer=tracer)
        result["layers"] = tracing.summarize(tracer.spans)
        if i == 1:
            tracing.write_spans(tracer.spans, spans_path)
        return result

    results = repeat(seconds, run_one, minimum=2)
    plain, runs = results[0::2], results[1::2]
    layers = [r["layers"] for r in runs]
    gate.check(all({k: v["calls"] for k, v in s.items()} ==
                   {k: v["calls"] for k, v in layers[0].items()} for s in layers),
               "traced call counts differ between passes")
    first = layers[0]
    metrics: dict = {}
    for name, entry in first.items():
        if name != tracing.ROOT:
            metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[name]["self_s"] for s in layers), "s")

    def frac(name: str, key: str) -> float:
        calls = first[name]["calls"]
        return first[name].get(key, 0) / calls if calls else 0.0

    metrics["cone.cone_trivial.trivial_frac"] = (frac("cone.cone_trivial", "trivial"), "ratio")
    metrics["reducibility.matrix_reduce.closed_frac"] = (
        frac("reducibility.matrix_reduce", "closed"), "ratio")
    metrics["reducibility.digit_reduce.closed_frac"] = (
        frac("reducibility.digit_reduce", "closed"), "ratio")
    cone, matrix = first["cone.cone_trivial"], first["reducibility.matrix_reduce"]
    inputs = cone["calls"] + matrix["calls"]
    metrics["progressions.cols_mean"] = (
        (cone.get("cols", 0) + matrix.get("cols", 0)) / inputs if inputs else 0.0, "cols")
    scans = [s["capset.verify_cap"] for s in layers]
    metrics["capset.verify_cap.probes_per_s"] = (
        statistics.median(s.get("probes", 0) / s["scan_s"] if s.get("scan_s") else 0.0
                          for s in scans), "1/s")
    metrics["capset.build_cap.points"] = (first["capset.build_cap"].get("points", 0), "count")
    metrics["search.candidates_examined"] = (runs[0].get("candidates_examined", 0), "count")
    metrics["search.cert_bytes"] = (runs[0].get("cert_bytes", 0), "B")
    metrics["search.checkpoint_bytes"] = (runs[0].get("checkpoint_bytes", 0), "B")
    untraced_s = statistics.median(r["pass_s"] for r in plain)
    traced_s = statistics.median(r["pass_s"] for r in runs)
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    named = {"untraced_pass_s_each": [r["pass_s"] for r in plain],
             "traced_pass_s_each": [r["pass_s"] for r in runs]}
    return metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affinecaps" / "__init__.py").is_file():
        print(f"error: no affinecaps package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    meta = metadata(args)
    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
    gate = workloads.Gate()
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, named = traced(workload, gate, args.seconds, spans_path)
    else:
        metrics, named = end_to_end(workload, gate, args.seconds)
    try:
        WORK.rmdir()
    except OSError:
        pass  # holds the spans of a traced run, or another run uses it
    meta["fail_frac"] = gate.failed / gate.attempted
    meta["failures"] = gate.failures
    meta["named"] = {k: v if not isinstance(v, tuple) else {"value": v[0], "unit": v[1]}
                     for k, v in named.items()}
    print(json.dumps(meta))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
