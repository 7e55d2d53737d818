"""The three benchmark workloads: seeded inputs, one timed pass, and its gate.

Each workload builds its inputs from the seed and fixed constants only, then
runs passes. A pass does its library work inside a timed region, in a fresh output
directory (a reused one would let ``store_certificate`` skip writes and a
leftover checkpoint would turn a sweep into a resume), and afterwards checks
every output with code that does not share the library's logic where a
check can be written independently. Layers are always called through their
module attributes so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack, nullcontext
from itertools import permutations, product
from pathlib import Path

from affinecaps import capset as CAP
from affinecaps import cone as CONE
from affinecaps import equivalence as EQ
from affinecaps import progressions as PROG
from affinecaps import reducibility as RED
from affinecaps import search as SEARCH
from affinecaps import zp as ZP

# Published admissible pairs (D, D') from the paper's tables.
PUBLISHED = {
    17: ((0, 1, 2, 4, 8, 9, 13), (0, 1, 2, 4, 8)),
    23: ((0, 1, 3, 4, 8, 9, 10, 12, 17), (0, 1, 3, 4, 8, 10, 17)),
}
# Best known admissible digit-set sizes; random sets are drawn around them.
BEST_SIZE = {17: 7, 19: 6, 23: 9}
# Proven maximal admissible sizes with D' = D (criterion 07).
MAX_SIZE = {11: 5, 13: 4}


class Gate:
    """Counts correctness checks; each failed check is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def balance_matrix(p: int, digits, fixed, b: int) -> list[list[int]]:
    """The frequency-balance matrix, re-derived here from its definition."""
    c = -(b + 1) % p
    in_d = set(digits)
    cols = sorted(
        (x, y, z) for y in digits for z in digits
        for x in [-(b * y + c * z) % p] if x in in_d and not x == y == z
    )
    return [
        [1 if v[0] == d and v[pos] != d else -1 if v[pos] == d and v[0] != d else 0
         for v in cols]
        for pos in (1, 2) for d in fixed
    ]


def is_witness(matrix, w) -> bool:
    """Nonzero, nonnegative and in the kernel: a refutation of admissibility."""
    width = len(matrix[0]) if matrix else len(w)
    return (len(w) == width and all(v >= 0 for v in w) and any(w)
            and all(sum(a * v for a, v in zip(row, w)) == 0 for row in matrix))


def collinear(p: int, x, y, z) -> bool:
    """Three distinct points with y - x and z - x linearly dependent mod p."""
    if len({x, y, z}) != 3:
        return False
    u = [(a - b) % p for a, b in zip(y, x)]
    v = [(a - b) % p for a, b in zip(z, x)]
    return all((u[i] * v[j] - u[j] * v[i]) % p == 0
               for i in range(len(u)) for j in range(i + 1, len(u)))


def dir_bytes(directory: Path, pattern: str) -> int:
    return sum(f.stat().st_size for f in directory.glob(pattern) if f.is_file())


class Workload:
    """One pass = timed library work in a fresh directory, then the gate."""

    name = ""
    # The host-speed probe's kernel (see hostspeed.py).
    kernel = "fraction"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def run_pass(self, gate: Gate, tracer=None, probe=None,
                 serial_only: bool = False) -> dict:
        """The pass wall time, the named timings and sizes computed by the gate.

        A tracer or a host-speed probe, if given, is open during the timed
        work only. Outputs are dropped once checked, so memory does not grow
        with passes.
        """
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            with ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer)
                    stack.enter_context(tracer.root())
                if probe is not None:
                    stack.enter_context(probe)
                t0 = time.perf_counter()
                unprobed = probe.paused if probe is not None else nullcontext
                times, outputs = self.work(out_dir, serial_only or tracer is not None,
                                           unprobed)
                times["pass_s"] = time.perf_counter() - t0
            return {**times, **self.check(outputs, out_dir, gate)}
        finally:
            shutil.rmtree(out_dir)

    def work(self, out_dir: Path, serial_only: bool, unprobed) -> tuple[dict, dict]:
        """Timed library work: (named timings, outputs for the gate).

        Work run inside ``unprobed()`` is left out of the host-normalised
        pass time.
        """
        raise NotImplementedError

    def check(self, outputs: dict, out_dir: Path, gate: Gate) -> dict:
        """Checks the outputs; returns sizes computed from them."""
        raise NotImplementedError

    @staticmethod
    def named(results: list[dict]) -> dict:
        """The workload's own timings as (value, unit), over untraced passes."""
        raise NotImplementedError


class Sweep(Workload):
    """Maximality proofs for p = 11 and 13, with one and with two workers."""

    name = "sweep"
    PRIMES = (11, 13)

    def _sweep(self, out_dir: Path, workers: int) -> dict:
        tag = f"w{workers}"
        return {
            p: SEARCH.max_admissible_size(
                p, checkpoint_path=out_dir / f"{tag}_p{p}.jsonl",
                workers=workers, cert_dir=out_dir / f"{tag}_certs")
            for p in self.PRIMES
        }

    def work(self, out_dir: Path, serial_only: bool, unprobed) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        outputs = {"reports": self._sweep(out_dir, 1)}
        times = {"sweep_s": time.perf_counter() - t0}
        if not serial_only:
            # Two workers on a 2-vCPU host run at the speed of both cores,
            # which a one-core probe cannot describe.
            with unprobed():
                t0 = time.perf_counter()
                outputs["reports_w2"] = self._sweep(out_dir, 2)
                times["sweep_w2_s"] = time.perf_counter() - t0
        return times, outputs

    def check(self, outputs: dict, out_dir: Path, gate: Gate) -> dict:
        sizes = {
            "candidates_examined": sum(
                r.candidates_examined for r in outputs["reports"].values()),
            "cert_bytes": dir_bytes(out_dir / "w1_certs", "*.json"),
            "checkpoint_bytes": dir_bytes(out_dir, "w1_*.jsonl"),
        }
        for p, report in outputs["reports"].items():
            gate.check(report.max_size == MAX_SIZE[p] and report.maximality == "proven"
                       and not report.budget_exhausted, f"sweep p={p} verdict")
            gate.check(bool(report.refutations), f"sweep p={p} has refutations")
            for ref in report.refutations:
                gate.check(is_witness(balance_matrix(p, ref.digits, ref.digits, ref.b),
                                      ref.witness),
                           f"sweep p={p} witness for {ref.digits}")
            canonical = SEARCH.render_report(report)
            if "reports_w2" in outputs:
                gate.check(SEARCH.render_report(outputs["reports_w2"][p]) == canonical,
                           f"sweep p={p} two-worker report differs")
            resumed = SEARCH.max_admissible_size(
                p, checkpoint_path=out_dir / f"w1_p{p}.jsonl", workers=1,
                cert_dir=out_dir / "w1_certs")
            gate.check(SEARCH.render_report(resumed) == canonical,
                       f"sweep p={p} resumed report differs")
        return sizes

    @staticmethod
    def named(results: list[dict]) -> dict:
        return {key: (statistics.median(r[key] for r in results), "s")
                for key in ("sweep_s", "sweep_w2_s")}


def affine_image(digits, a: int, b: int, p: int) -> tuple[int, ...]:
    return tuple(sorted((a * d + b) % p for d in digits))


def verify_payload(data: dict) -> bool:
    """Re-check one certificate document as ``affinecaps cert-verify`` does."""
    pair = ZP.digit_pair(data["p"], data["digits"], data["fixed"])
    eq = ZP.make_line_equation(data["p"], data["b"])
    method = data["method"]
    if method == "digit":
        return RED.verify_digit_trace(pair, eq, RED.trace_from_jsonable(data["trace"]))
    system = PROG.build_constraint_system(PROG.enumerate_progressions(pair, eq))
    if method == "matrix":
        return RED.verify_matrix_trace(system, RED.trace_from_jsonable(data["trace"]))
    if method == "cone":
        try:
            return CONE.verify_certificate(
                system, CONE.certificate_from_jsonable(data["certificate"]))
        except ValueError:
            return False
    return False


def _negate(values: list[str]) -> list[str]:
    return [v[1:] if v.startswith("-") else "-" + v for v in values]


def tamper(data: dict):
    """A fault that no valid certificate survives, or None when not applicable.

    Dropping the last step of a reduced trace leaves columns behind; negating
    a dual vector turns A^T y >= 1 into <= -1; negating a witness makes it
    nonpositive.
    """
    data = json.loads(json.dumps(data))
    if "trace" in data:
        if not (data["trace"]["steps"] and data["trace"]["verdict"] == "reduced-to-empty"):
            return None
        data["trace"]["steps"].pop()
        return data
    cert = data["certificate"]
    if cert["kind"] == "trivial" and cert["dual"]:
        cert["dual"] = _negate(cert["dual"])
    elif cert["kind"] == "nontrivial":
        cert["witness"] = _negate(cert["witness"])
    else:
        return None
    return data


def cert_kind(data: dict) -> str:
    if "trace" in data:
        return data["method"]
    return "cone-" + data["certificate"]["kind"]


class Certify(Workload):
    """Classify, check and store, then re-verify, on seeded pairs at p = 17, 19, 23.

    The random base pairs (D, D') come from a fixed pool: every (p, |D|)
    stratum gets the same number of random sets, with |D'| cycling through
    |D| - 2, |D| - 1, |D|. The run's seed draws the affine images of every
    base. A few hard pairs make up much of a pass, so drawing the bases
    from the seed changed the work of a pass by up to 12% between seeds;
    images of a base cost about as much as the base.
    """

    name = "certify"
    BASES_PER_STRATUM = 8
    IMAGES = 2
    POOL_SEED = 20221117

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        pool = random.Random(self.POOL_SEED)
        bases = []
        for p, best in BEST_SIZE.items():
            for size in (best - 1, best, best + 1):
                for i in range(self.BASES_PER_STRATUM):
                    digits = tuple(sorted(pool.sample(range(p), size)))
                    fixed = tuple(sorted(pool.sample(digits, size - 2 + i % 3)))
                    bases.append((p, digits, fixed, False))
        bases += [(p, d, f, True) for p, (d, f) in PUBLISHED.items()]
        # groups[i] = (published, [base pair, image pairs...]); pair = (p, D, D')
        self.groups = []
        for p, digits, fixed, published in bases:
            pairs = [(p, digits, fixed)]
            for _ in range(self.IMAGES):
                a, b = self.rng.randrange(1, p), self.rng.randrange(p)
                pairs.append((p, affine_image(digits, a, b, p),
                              affine_image(fixed, a, b, p)))
            self.groups.append((published, pairs))
        self.pairs = [pair for _, pairs in self.groups for pair in pairs]

    def work(self, out_dir: Path, serial_only: bool, unprobed) -> tuple[dict, dict]:
        cert_dir = out_dir / "certs"
        t0 = time.perf_counter()
        classes = {}
        for p in sorted({pair[0] for pair in self.pairs}):
            sets = [pair[1] for pair in self.pairs if pair[0] == p]
            classes[p] = EQ.classify(sets, p)
        classify_s = time.perf_counter() - t0

        check_ms, verdicts = [], []
        for p, digits, fixed in self.pairs:
            t0 = time.perf_counter()
            pair = ZP.digit_pair(p, digits, fixed)
            verdict = SEARCH.check_pair(pair)
            for outcome in verdict.outcomes:
                SEARCH.store_certificate(SEARCH.certificate_payload(pair, outcome), cert_dir)
            check_ms.append((time.perf_counter() - t0) * 1e3)
            verdicts.append(verdict.admissible)

        t0 = time.perf_counter()
        reverified = {}
        for path in sorted(cert_dir.glob("*.json")):
            reverified[path.name] = verify_payload(json.loads(path.read_text()))
        certverify_s = time.perf_counter() - t0
        return ({"classify_s": classify_s, "check_ms": check_ms, "certverify_s": certverify_s},
                {"classes": classes, "verdicts": verdicts, "reverified": reverified})

    def check(self, outputs: dict, out_dir: Path, gate: Gate) -> dict:
        cert_dir = out_dir / "certs"
        for name, ok in outputs["reverified"].items():
            gate.check(ok, f"certificate {name} does not re-verify")

        class_of = {
            (p, member): i
            for p, cls in outputs["classes"].items()
            for i, orbit in enumerate(cls.classes) for member in orbit.members
        }
        verdicts = iter(outputs["verdicts"])
        for published, pairs in self.groups:
            group = [next(verdicts) for _ in pairs]
            base = pairs[0]
            gate.check(len(set(group)) == 1, f"verdict not affine-invariant for {base}")
            if published:
                gate.check(all(group), f"published pair image inadmissible: {base}")
            home = class_of.get((base[0], base[1]))
            for p, digits, _ in pairs[1:]:
                gate.check(home is not None and class_of.get((p, digits)) == home,
                           f"image {digits} outside the class of {base}")

        # Planted faults: one tampered copy of each kind must be rejected.
        seen = set()
        for name in sorted(outputs["reverified"]):
            data = json.loads((cert_dir / name).read_text())
            kind = cert_kind(data)
            bad = tamper(data) if kind not in seen else None
            if bad is None:
                continue
            seen.add(kind)
            path = out_dir / "tampered.json"
            path.write_text(json.dumps(bad, sort_keys=True, indent=2) + "\n")
            gate.check(not verify_payload(json.loads(path.read_text())),
                       f"tampered {kind} certificate accepted")
        return {"cert_bytes": dir_bytes(cert_dir, "*.json")}

    @staticmethod
    def named(results: list[dict]) -> dict:
        samples = [ms for r in results for ms in r["check_ms"]]
        q = statistics.quantiles(samples, n=100, method="inclusive")
        return {
            "check_ms_p50": (statistics.median(samples), "ms"),
            "check_ms_p95": (q[94], "ms"),
            "certverify_s": (statistics.median(r["certverify_s"] for r in results), "s"),
            "classify_s": (statistics.median(r["classify_s"] for r in results), "s"),
        }


def cap_points(p: int, digits, fixed, n: int) -> list[tuple[int, ...]]:
    """Points of the construction with one copy of each pinned digit (n = |D|)."""
    free = [d for d in digits if d not in fixed]
    points = []
    for slots in permutations(range(n), len(fixed)):
        rest = [i for i in range(n) if i not in slots]
        for filling in product(free, repeat=len(rest)):
            vec = [0] * n
            for i, d in zip(slots, fixed):
                vec[i] = d
            for i, d in zip(rest, filling):
                vec[i] = d
            points.append(tuple(vec))
    return sorted(points)


class Verify(Workload):
    """Cap enumeration and the collinearity scan on three point sets."""

    name = "verify"
    kernel = "numpy"
    # (p, D, D', n, points)
    SYMMETRIC = (13, (0, 1, 2, 3), (0, 1, 2, 3), 8, 2520)
    BIG = (11, (0, 1, 3, 4, 5), (0, 1, 3), 10, 302400)
    SUBSET = 2000

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        digits, fixed = PUBLISHED[17]
        full = cap_points(17, digits, fixed, len(digits))
        self.subset = sorted(self.rng.sample(full, self.SUBSET))
        x, y = self.subset[0], self.rng.choice(self.subset[1:])
        self.planted = tuple((2 * b - a) % 17 for a, b in zip(x, y))

    def work(self, out_dir: Path, serial_only: bool, unprobed) -> tuple[dict, dict]:
        p, digits, fixed, n, _ = self.SYMMETRIC
        t0 = time.perf_counter()
        cap = CAP.build_cap(ZP.digit_pair(p, digits, fixed), n)
        sym_check = CAP.verify_cap(cap)
        verify_cap_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        path = out_dir / "points.txt"
        CAP.write_points(self.subset, path)
        read_back = CAP.read_points(path)
        subset_check = CAP.verify_cap(read_back, 17)
        verify_points_s = time.perf_counter() - t0

        p, digits, fixed, n, _ = self.BIG
        t0 = time.perf_counter()
        big = CAP.build_cap(ZP.digit_pair(p, digits, fixed), n)
        build_cap_s = time.perf_counter() - t0
        return ({"verify_cap_s": verify_cap_s, "verify_points_s": verify_points_s,
                 "build_cap_s": build_cap_s},
                {"cap": cap, "sym_check": sym_check, "read_back": read_back,
                 "subset_check": subset_check, "big": big})

    def check(self, outputs: dict, out_dir: Path, gate: Gate) -> dict:
        for (p, digits, fixed, n, expected), cap in ((self.SYMMETRIC, outputs["cap"]),
                                                     (self.BIG, outputs["big"])):
            estimate = CAP.size_estimate(ZP.digit_pair(p, digits, fixed), n).exact_count
            gate.check(len(cap) == expected == estimate == len(set(cap.points)),
                       f"cap p={p} n={n} has {len(cap)} points, estimate {estimate}")
        gate.check(outputs["sym_check"].ok, "symmetric cap rejected")
        gate.check(list(outputs["read_back"]) == self.subset, "points file round trip")
        gate.check(outputs["subset_check"].ok, "point subset rejected")

        planted = CAP.verify_cap(self.subset + [self.planted], 17)
        gate.check(not planted.ok, "planted collinear point accepted")
        if planted.violation is not None:
            x, y, z = planted.violation
            members = set(self.subset) | {self.planted}
            gate.check({x, y, z} <= members and collinear(17, x, y, z),
                       f"reported triple {planted.violation} is not collinear")
        return {}

    @staticmethod
    def named(results: list[dict]) -> dict:
        return {key: (statistics.median(r[key] for r in results), "s")
                for key in ("verify_cap_s", "verify_points_s", "build_cap_s")}


WORKLOADS = {cls.name: cls for cls in (Sweep, Certify, Verify)}
