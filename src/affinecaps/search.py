"""Candidate enumeration and the admissibility sweep over digit-set sizes.

The sweep exploits monotonicity in the fixed digits: enlarging the set of
frequency-pinned digits only adds balance equations, shrinking the cone, so
a pair is admissible for some choice of fixed digits iff it is admissible
with every digit pinned. Levels are therefore swept with fixed = all of D;
maximality at size l means every size-(l+1) candidate was refuted by a
nonzero cone witness for some equation representative.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from pathlib import Path

from .cone import (
    ConeCertificate,
    certificate_from_jsonable,
    certificate_to_jsonable,
    cone_trivial,
    verify_certificate,
)
from .progressions import build_constraint_system, enumerate_progressions
from .reducibility import (
    ReductionTrace,
    digit_reduce,
    matrix_reduce,
    trace_from_jsonable,
    trace_to_jsonable,
    verify_digit_trace,
    verify_matrix_trace,
)
from .zp import DigitSetPair, Prime, digit_pair, equation_classes, make_line_equation


def candidates(p: int, size: int):
    """All ascending digit sets of the given size containing 0 and 1.

    Every orbit under affine maps has such a member, so nothing admissible
    is missed.
    """
    p = Prime(p)
    if not 2 <= size <= p - 1:
        raise ValueError(f"size must lie in 2..{p - 1}, got {size}")
    for rest in combinations(range(2, p), size - 2):
        yield (0, 1) + rest


@dataclass(frozen=True)
class RepOutcome:
    """How one equation-class representative was settled: by its proof.

    ``proof`` is the digit or matrix ``ReductionTrace`` that reached the
    empty state, or the ``ConeCertificate`` of the cone test.
    """

    b: int
    proof: ReductionTrace | ConeCertificate

    @property
    def method(self) -> str:
        """The closing method: digit, matrix or cone."""
        return self.proof.kind if isinstance(self.proof, ReductionTrace) else "cone"

    @property
    def trivial(self) -> bool:
        if isinstance(self.proof, ReductionTrace):
            return self.proof.reduced
        return self.proof.trivial


@dataclass(frozen=True)
class PairVerdict:
    pair: DigitSetPair
    outcomes: tuple[RepOutcome, ...]

    @property
    def admissible(self) -> bool:
        return all(o.trivial for o in self.outcomes)


def check_pair(pair: DigitSetPair) -> PairVerdict:
    """Digit rule, then cone, then matrix rule on a trivial cone, per representative.

    The recorded proof prefers a digit trace to a matrix trace and a
    matrix trace to a cone certificate. The matrix rule runs only after a
    trivial cone certificate, because it deletes only columns that are 0
    in every x >= 0 with A x = 0: a run that reaches the empty state
    proves the cone trivial, so on a nontrivial cone the rule is stuck.

    Stops at the first representative with a nonzero cone witness; the
    returned outcomes then end with that refutation.
    """
    outcomes = []
    for b in equation_classes(pair.p).representatives:
        eq = make_line_equation(pair.p, b)
        proof = digit_reduce(pair, eq)
        if not proof.reduced:
            system = build_constraint_system(enumerate_progressions(pair, eq))
            proof = cone_trivial(system)
            if proof.trivial:
                trace = matrix_reduce(system)
                proof = trace if trace.reduced else proof
        outcomes.append(RepOutcome(b, proof))
        if not outcomes[-1].trivial:
            break
    return PairVerdict(pair, tuple(outcomes))


def _proof_to_jsonable(outcome: RepOutcome) -> dict:
    """{b, method, trace | certificate}: the proof as both documents record it."""
    proof = outcome.proof
    if isinstance(proof, ReductionTrace):
        encoded = {"trace": trace_to_jsonable(proof)}
    else:
        encoded = {"certificate": certificate_to_jsonable(proof)}
    return {"b": outcome.b, "method": outcome.method, **encoded}


def outcome_to_jsonable(outcome: RepOutcome) -> dict:
    return {**_proof_to_jsonable(outcome), "trivial": outcome.trivial}


@dataclass(frozen=True)
class Refutation:
    digits: tuple[int, ...]
    b: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class SearchBudget:
    max_seconds: float | None = None
    max_candidates: int | None = None


@dataclass(frozen=True)
class SearchReport:
    """``witness`` is the verdict of the largest admissible digit set found,
    with its fewest fixed digits; None when none was found."""

    p: int
    witness: PairVerdict | None
    candidates_examined: int
    maximality: str  # "proven" | "not-attempted"
    refutations: tuple[Refutation, ...]
    budget_exhausted: bool

    @property
    def max_size(self) -> int | None:
        return None if self.witness is None else len(self.witness.pair.digits)


def report_to_jsonable(report: SearchReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "digits": list(report.witness.pair.digits),
            "fixed": list(report.witness.pair.fixed),
            "bundle": [outcome_to_jsonable(o) for o in report.witness.outcomes],
        }
    return {
        "p": report.p,
        "max_size": report.max_size,
        "witness": witness,
        "candidates_examined": report.candidates_examined,
        "maximality": report.maximality,
        "refutations": [
            {"digits": list(r.digits), "b": r.b,
             "witness": [str(v) for v in r.witness]}
            for r in report.refutations
        ],
        "budget_exhausted": report.budget_exhausted,
    }


def render_report(report: SearchReport) -> str:
    """Canonical bytes for report files: sorted keys, two-space indent."""
    return json.dumps(report_to_jsonable(report), sort_keys=True, indent=2) + "\n"


def store_certificate(payload: dict, directory) -> str:
    """Write a JSON payload content-addressed by its SHA-256; returns the hash.

    The file appears under its hash name only once complete (written to a
    temporary file, then renamed), and a stored file whose bytes do not
    hash to its name, such as one torn by a crash, is written again.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    digest = hashlib.sha256(blob).hexdigest()
    path = directory / f"{digest}.json"
    if not path.exists() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=digest, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    return digest


def certificate_payload(pair: DigitSetPair, outcome: RepOutcome) -> dict:
    """Self-contained certificate document: context plus proof object."""
    return {"p": int(pair.p), "digits": list(pair.digits), "fixed": list(pair.fixed),
            **_proof_to_jsonable(outcome)}


def verify_certificate_payload(data) -> bool:
    """Re-check a document written by ``certificate_payload``, trusting nothing in it.

    Returns whether the proof object holds for the stated pair and
    equation; a proof object of the wrong dimension, or a reduction trace
    that does not reach the empty state, fails. Raises ValueError (or
    KeyError for a missing field) when the document is malformed.
    """
    if not isinstance(data, dict):
        raise ValueError("certificate document must be a JSON object")
    for key, kind in (("p", int), ("b", int), ("digits", list), ("fixed", list)):
        if type(data.get(key)) is not kind:  # JSON true and false are not integers
            raise ValueError(f"certificate field {key!r} must be a JSON {kind.__name__}")
    if not all(type(d) is int for d in data["digits"] + data["fixed"]):
        raise ValueError("certificate digits must be integers")
    pair = digit_pair(data["p"], data["digits"], data["fixed"])
    eq = make_line_equation(data["p"], data["b"])
    method = data["method"]
    if method not in ("digit", "matrix", "cone"):
        raise ValueError(f"unknown certificate method {method!r}")
    if method == "cone":
        proof = certificate_from_jsonable(data["certificate"])
    else:
        proof = trace_from_jsonable(data["trace"])
        if not proof.reduced:  # a faithful replay of a stuck trace proves nothing
            return False
    if method == "digit":
        return verify_digit_trace(pair, eq, proof)
    system = build_constraint_system(enumerate_progressions(pair, eq))
    if method == "matrix":
        return verify_matrix_trace(system, proof)
    try:
        return verify_certificate(system, proof)
    except ValueError:  # certificate of the wrong dimension
        return False


def verify_report_payload(data) -> bool:
    """Re-check a document written by ``render_report``, trusting nothing in it.

    A loop over ``verify_certificate_payload``: the bundle must close each
    equation-class representative of the witness pair in turn, ``max_size``
    must be the witness's size, and a ``proven`` report must refute, in
    order, every candidate one digit larger with all digits pinned. A
    ``not-attempted`` report lists no refutations, and a report without a
    witness claims nothing. Raises ValueError (or KeyError for a missing
    field) when the document is malformed.
    """
    try:
        maximality, refutations, witness = data["maximality"], data["refutations"], data["witness"]
        if maximality not in ("proven", "not-attempted") or not isinstance(refutations, list):
            raise ValueError("a report needs maximality proven or not-attempted "
                             "and a list of refutations")
        if witness is None:
            return maximality == "not-attempted" and not refutations and data["max_size"] is None
        p, bundle, size = data["p"], witness["bundle"], len(set(witness["digits"]))
        if [entry["b"] for entry in bundle] != list(equation_classes(p).representatives) \
                or data["max_size"] != size:
            return False
        context = {"p": p, "digits": witness["digits"], "fixed": witness["fixed"]}
        for entry in bundle:
            if not verify_certificate_payload({**entry, **context}) or (
                    entry["method"] == "cone" and entry["certificate"]["kind"] == "nontrivial"):
                return False
        if maximality == "not-attempted":
            return not refutations
        if [r["digits"] for r in refutations] != [list(d) for d in candidates(p, size + 1)]:
            return False
        return all(verify_certificate_payload(
            {"p": p, "digits": r["digits"], "fixed": r["digits"], "b": r["b"], "method": "cone",
             "certificate": {"kind": "nontrivial", "witness": r["witness"]}})
            for r in refutations)
    except TypeError as exc:
        raise ValueError(f"malformed search report: {exc}") from exc


def _candidate_record(p: int, digits: tuple[int, ...]) -> dict:
    """The checkpoint record of one candidate: its verdict and, if refuted, the witness."""
    verdict = check_pair(digit_pair(p, digits))
    record: dict = {
        "p": p,
        "size": len(digits),
        "digits": list(digits),
        "admissible": verdict.admissible,
        "methods": [[o.b, o.method] for o in verdict.outcomes],
    }
    if not verdict.admissible:
        refuting = verdict.outcomes[-1]
        record["refuted_b"] = refuting.b
        record["witness"] = [str(v) for v in refuting.proof.witness]
    return record


class _Checkpoint:
    """Append-only JSONL store of the candidate verdicts mod ``p``, keyed by (size, digits),
    that computes the missing ones, through a pool when ``workers`` is above 1.

    A record of another modulus is refused with ValueError on opening; a
    record without ``"p"`` (the earlier format) is read as one mod ``p``.
    A kill can tear only the last line, which then lacks its newline: that
    line is dropped and cut from the file before appending, and its
    candidate is checked again. Any other unparseable line is an error.
    """

    def __init__(self, path, p: int, workers: int) -> None:
        self.path = Path(path) if path else None
        self.p, self.workers = p, workers
        self.records: dict[tuple[int, tuple[int, ...]], dict] = {}
        if self.path and self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            for line in data[:complete].decode().splitlines():
                if line.strip():
                    rec = json.loads(line)
                    if rec.get("p", p) != p:
                        raise ValueError(f"checkpoint {self.path} holds a verdict mod "
                                         f"{rec['p']}, not mod {p}")
                    self.records[(rec["size"], tuple(rec["digits"]))] = rec
            if complete < len(data):
                os.truncate(self.path, complete)
        self._fh = self.path.open("a") if self.path else None
        self.budget_exhausted, self._pool = False, None
        if workers > 1:
            from multiprocessing import Pool
            self._pool = Pool(workers)

    def level(self, size: int, room: float, deadline: float):
        """The records of ``candidates(p, size)`` in order: the stored ones, and
        the missing ones computed and appended.

        The budget is checked before each candidate: once ``room`` records
        are yielded, or the clock is past ``deadline``, the stream ends early
        and sets ``budget_exhausted``.
        """
        order = list(candidates(self.p, size))
        pending = [d for d in order if (size, d) not in self.records]
        work = partial(_candidate_record, self.p)
        computed = (_in_batches(self._pool, work, pending, 2 * self.workers) if self._pool
                    else map(work, pending))
        for i, digits in enumerate(order):
            if i >= room or time.monotonic() > deadline:
                self.budget_exhausted = True
                return
            rec = self.records.get((size, digits))
            if rec is None:
                rec = next(computed)
                if self._fh:
                    self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
                    self._fh.flush()
            yield rec

    def close(self) -> None:
        if self._fh:
            self._fh.close()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()


def max_admissible_size(
    p: int,
    budget: SearchBudget | None = None,
    checkpoint_path=None,
    workers: int = 1,
    cert_dir=None,
    min_size: int = 2,
    max_size: int | None = None,
) -> SearchReport:
    """Find the largest admissible digit-set size and prove its maximality.

    Ascends through sizes; a size is settled by the first admissible
    candidate, and the sweep ends at the first size where the full scan
    refutes every candidate, which is the maximality proof for size - 1.
    An exceeded budget yields a partial report (maximality not attempted),
    never an unproven claim; the same holds when the sweep is capped by
    ``max_size`` before reaching a fully refuted level, and when the
    first level it sweeps is already fully refuted. A ``max_size``
    above p - 1 is lowered to p - 1, and ``workers`` above the CPU count
    to that count; ``min_size`` outside 2..p-1, a ``max_size`` below
    ``min_size``, fewer than one worker, a negative budget and a
    checkpoint holding verdicts of another modulus raise ValueError
    before any work starts. ``cert_dir`` receives the certificates of the
    witness bundle; the refutations live in the report, which
    ``verify_report_payload`` checks.
    """
    p = Prime(p)
    if not 2 <= min_size <= p - 1:
        raise ValueError(f"min_size must lie in 2..{p - 1}, got {min_size}")
    if max_size is not None and max_size < min_size:
        raise ValueError(f"max_size {max_size} is below min_size {min_size}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    budget = budget or SearchBudget()
    for name, limit in (("seconds", budget.max_seconds), ("candidates", budget.max_candidates)):
        if limit is not None and not limit >= 0:  # NaN fails too
            raise ValueError(f"the {name} budget must not be negative, got {limit}")
    top = p - 1 if max_size is None else min(max_size, p - 1)
    deadline = time.monotonic() + (math.inf if budget.max_seconds is None else budget.max_seconds)
    most = math.inf if budget.max_candidates is None else budget.max_candidates
    ckpt = _Checkpoint(checkpoint_path, int(p), workers)
    examined, best, refuted = 0, None, []
    try:
        for size in range(min_size, top + 1):
            level = []
            for rec in ckpt.level(size, most - examined, deadline):
                examined += 1
                if rec["admissible"]:
                    best = rec
                    break
                level.append(rec)
            else:  # out of budget, or every candidate refuted: a proof if best is set
                refuted = [] if ckpt.budget_exhausted or best is None else level
                break
    finally:
        ckpt.close()
    witness = None if best is None else minimize_fixed_digits(best["digits"], p)
    if witness is not None and cert_dir is not None:
        for outcome in witness.outcomes:
            store_certificate(certificate_payload(witness.pair, outcome), cert_dir)
    refutations = tuple(Refutation(tuple(r["digits"]), r["refuted_b"],
                                   tuple(int(v) for v in r["witness"])) for r in refuted)
    return SearchReport(int(p), witness, examined, "proven" if refutations else "not-attempted",
                        refutations, ckpt.budget_exhausted)


def _in_batches(pool, work, pending: list, window: int):
    """``work`` over ``pending`` in order, with at most ``window`` batches of 8 in the pool.

    A level ends at its first admissible candidate, so only the batches
    already queued run past it, not the rest of the level.
    """
    batch = 8
    batches = (pending[i:i + batch] for i in range(0, len(pending), batch))
    queue = deque(pool.map_async(work, b, batch) for b in islice(batches, window))
    while queue:
        done = queue.popleft().get()
        queue.extend(pool.map_async(work, b, batch) for b in islice(batches, 1))
        yield from done


def minimize_fixed_digits(digits, p: int) -> PairVerdict:
    """Verdict for the smallest (then lexicographically least) admissible set of fixed digits."""
    digits = tuple(sorted(set(digits)))
    if not check_pair(digit_pair(p, digits)).admissible:
        raise ValueError(f"digit set {digits} is not admissible mod {p}")
    for size in range(len(digits) + 1):
        for fixed in combinations(digits, size):
            verdict = check_pair(digit_pair(p, digits, fixed))
            if verdict.admissible:
                return verdict
    raise AssertionError("unreachable: the full digit set is admissible")
