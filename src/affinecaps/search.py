"""Candidate enumeration and the admissibility sweep over digit-set sizes.

The sweep exploits monotonicity in the fixed digits: enlarging the set of
frequency-pinned digits only adds balance equations, shrinking the cone, so
a pair is admissible for some choice of fixed digits iff it is admissible
with every digit pinned. Levels are therefore swept with fixed = all of D;
maximality at size l means every size-(l+1) candidate was refuted by a
nonzero cone witness for some equation representative. An affine map of the
digits preserves every line equation, so one candidate per affine orbit is
enough, and a candidate that holds an affine image of the digits a witness
weighs inherits that witness (``_Refutations``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .cone import (
    ConeCertificate,
    _row_sums,
    certificate_from_jsonable,
    certificate_to_jsonable,
    cone_trivial,
    verify_certificate,
)
from .progressions import (
    ProgressionTable,
    build_constraint_system,
    enumerate_progressions,
)
from .reducibility import (
    ReductionTrace,
    digit_reduce,
    matrix_reduce,
    trace_from_jsonable,
    trace_to_jsonable,
    verify_digit_trace,
    verify_matrix_trace,
)
from .zp import (
    DigitSetPair,
    Prime,
    _affine_maps,
    _least_images,
    _normal_forms,
    digit_pair,
    equation_classes,
    make_line_equation,
    orbit_count,
)


@lru_cache(maxsize=2)
def candidates(p: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The normal forms (``normalize_digit_set``) of the size-``size`` digit sets,
    one per affine orbit, in ascending order.

    Orderly generation (Read, 1978): deleting the largest digit of a normal
    form leaves a normal form, since an image of the rest that sorts below
    it would, with the image of the deleted digit added, sort below the
    whole set. So the level is the sets S + (m,), for S one level down and
    m > max S, that equal their least image, which ``zp._least_images`` forms
    for the whole array (of the smallest integer type that holds p). The sweep
    asks for the levels in turn, so a cache of two builds each level once.
    """
    p = Prime(p)
    if not 2 <= size <= p - 1:
        raise ValueError(f"size must lie in 2..{p - 1}, got {size}")
    if size == 2:
        return ((0, 1),)
    below = np.array(candidates(p, size - 1), np.min_scalar_type(p))
    s, m = np.nonzero(np.arange(p) > below[:, -1:])  # each S with each m > max S, in order
    rows = np.column_stack((below[s], m.astype(below.dtype)))
    return tuple(zip(*rows[(_least_images(rows, p) == rows).all(axis=1)].T.tolist()))


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


def _settle(pair: DigitSetPair, tables) -> PairVerdict:
    """Digit rule, then cone, then matrix rule on a trivial cone, on the pair's table of
    each representative in turn (``tables``); the outcomes end at the first refutation.

    The recorded proof prefers a digit trace to a matrix trace and a
    matrix trace to a cone certificate. The matrix rule runs only after a
    trivial cone certificate, because it deletes only columns that are 0
    in every x >= 0 with A x = 0: a run that reaches the empty state
    proves the cone trivial, so on a nontrivial cone the rule is stuck.
    """
    outcomes = []
    for table in tables:
        proof = digit_reduce(table)
        if not proof.reduced:
            system = build_constraint_system(table)
            proof = cone_trivial(system)
            if proof.trivial:
                trace = matrix_reduce(system)
                proof = trace if trace.reduced else proof
        outcomes.append(RepOutcome(table.equation.b, proof))
        if not outcomes[-1].trivial:
            break
    return PairVerdict(pair, tuple(outcomes))


def check_pair(pair: DigitSetPair) -> PairVerdict:
    """The pair's verdict by ``_settle``, each table enumerated only when the loop reaches it."""
    return _settle(pair, (enumerate_progressions(pair, make_line_equation(pair.p, b))
                          for b in equation_classes(pair.p).representatives))


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
    """Canonical text of a report file: ``_canonical_json`` of the report, one line,
    and a newline."""
    return _canonical_json(report_to_jsonable(report)) + "\n"


def _canonical_json(obj) -> str:
    """The one JSON form of every document the package writes (reports, certificates
    and checkpoint lines): sorted keys on one line, with the default separators."""
    return json.dumps(obj, sort_keys=True)


_EXCLUSIVE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW


def replace_file(path, data: bytes) -> None:
    """Write ``path`` whole or not at all: ``data`` goes to a temporary file
    ``<name>.<pid>.<thread>.tmp`` beside it, opened exclusively with mode
    0o666 less the umask, which is then renamed onto ``path``.

    The directory is made only when the open finds it missing. The name is
    unique to the calling thread, so an existing temporary file of that name
    is one a killed process with the same pid left behind: it is removed and
    the open repeated. A failed write removes the temporary file and leaves
    ``path`` as it was.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        fd = os.open(tmp, _EXCLUSIVE, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, _EXCLUSIVE, 0o666)
    except FileExistsError:
        os.unlink(tmp)
        fd = os.open(tmp, _EXCLUSIVE, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def store_certificate(payload: dict, directory) -> str:
    """Write a JSON payload content-addressed by its SHA-256; returns the hash.

    The bytes are ``_canonical_json(payload)``, one line, and a newline, stored
    as ``<hash>.json``; a document written in another JSON form, such as the
    two-space indent of earlier versions, reads back the same but has another
    name. A file already there with exactly those bytes is left
    alone; a missing or different one, such as one torn by a crash, is
    written through ``replace_file``, so it appears only once complete and
    follows the umask.
    """
    blob = (_canonical_json(payload) + "\n").encode()
    digest = hashlib.sha256(blob).hexdigest()
    path = os.path.join(directory, f"{digest}.json")
    try:
        with open(path, "rb") as fh:
            if fh.read() == blob:
                return digest
    except FileNotFoundError:
        pass
    replace_file(path, blob)
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
    equation-class representative of the witness pair in turn (every class
    has at most six of the p - 2 values of b, so a bundle shorter than
    (p - 2) / 6 fails before the O(p) listing of the classes, which is then
    proportional to the document), and ``max_size`` must be the witness's
    size. A ``proven`` report must not have exhausted its budget, and it must
    refute digit sets one digit larger, with all digits pinned, whose normal
    forms are ``orbit_count`` many distinct ones: one refuted member of every
    affine orbit, and admissibility is affine-invariant. The refuted sets
    are not compared with ``candidates``, so no generator is trusted. A
    ``not-attempted`` report lists no refutations, and a report without a
    witness claims nothing. Raises ValueError (or KeyError for a missing
    field) when the document is malformed: first when p is not a JSON
    integer that ``Prime`` accepts, and when a digit of the witness or of a
    refutation is not an integer in [0, p): a bool or a float must not pass
    for a digit, nor for ``max_size`` beside a witness, and
    ``budget_exhausted`` must be a JSON boolean.
    """
    try:
        p = data["p"]
        if type(p) is not int:
            raise ValueError(f"report field 'p' must be a JSON integer, got {p!r}")
        Prime(p)
        maximality, refutations, witness = data["maximality"], data["refutations"], data["witness"]
        if maximality not in ("proven", "not-attempted") or not isinstance(refutations, list):
            raise ValueError("a report needs maximality proven or not-attempted "
                             "and a list of refutations")
        refuted = [_report_digits(r["digits"], p) for r in refutations]
        if witness is not None:
            bundle, size = witness["bundle"], len(_report_digits(witness["digits"], p))
            claimed = [entry["b"] for entry in bundle]
            if type(data["max_size"]) is not int:  # nor a bool, nor 3.0
                raise ValueError("report field 'max_size' must be a JSON integer")
            if p - 2 > 6 * len(claimed) or data["max_size"] != size or \
                    claimed != list(equation_classes(p).representatives):
                return False
            context = {"p": p, "digits": witness["digits"], "fixed": witness["fixed"]}
            for entry in bundle:
                if not verify_certificate_payload({**entry, **context}) or \
                        entry["method"] == "cone" and entry["certificate"]["kind"] == "nontrivial":
                    return False
        elif maximality == "proven" or data["max_size"] is not None:
            return False
        if type(data["budget_exhausted"]) is not bool:
            raise ValueError("report field 'budget_exhausted' must be a JSON boolean")
        if maximality == "not-attempted":
            return not refutations
        if data["budget_exhausted"] or any(len(digits) != size + 1 for digits in refuted) or \
                len(set(_normal_forms(refuted, p).values())) != orbit_count(p, size + 1):
            return False
        return all(_refutation_holds(p, r["digits"], r["b"], r["witness"]) for r in refutations)
    except TypeError as exc:
        raise ValueError(f"malformed search report: {exc}") from exc


def _refutation_holds(p: int, digits, b: int, witness) -> bool:
    """Whether ``witness`` refutes ``digits`` mod p at b with every digit pinned,
    checked by ``verify_certificate_payload`` as a nontrivial cone certificate."""
    return verify_certificate_payload(
        {"p": p, "digits": digits, "fixed": digits, "b": b, "method": "cone",
         "certificate": {"kind": "nontrivial", "witness": witness}})


def _report_digits(digits, p) -> tuple[int, ...]:
    """The distinct digits of a report entry, ascending; raises ValueError unless
    ``digits`` is a list of ints (not bools) in [0, p)."""
    if not isinstance(digits, list) or not all(type(d) is int and 0 <= d < p for d in digits):
        raise ValueError(f"report digits must be integers in [0, p), got {digits!r} for p={p!r}")
    return tuple(sorted(set(digits)))


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


def _checked_record(rec: dict, p: int) -> dict:
    """``rec``, a record read from a checkpoint mod p, once it proves to be a verdict
    that holds. Raises unless ``"p"``, if present, is a JSON integer equal to p,
    ``"size"`` and the ``"digits"`` are JSON integers, ``"admissible"`` is a JSON
    boolean and, if it is false, the witness entries are strings and the
    refutation passes ``_refutation_holds``, or, if it is true, ``check_pair``
    finds the digits admissible. A level's stream ends at its first
    admissible record, so a checkpoint holds at most one per level."""
    modulus, digits, admissible = rec.get("p", p), rec["digits"], rec["admissible"]
    if type(modulus) is not int:  # a bool, a float or a string must not pass for p
        raise ValueError(f"p is not a JSON integer: {modulus!r:.40}")
    if modulus != p:
        raise ValueError(f"the record holds a verdict mod {modulus}, not mod {p}")
    if type(rec["size"]) is not int or type(digits) is not list or type(admissible) is not bool \
            or not all(type(d) is int for d in digits):
        raise ValueError("size or a digit is not a JSON integer, or admissible not a JSON boolean")
    if not admissible and not (all(type(v) is str for v in rec["witness"])
                               and _refutation_holds(p, digits, rec["refuted_b"], rec["witness"])):
        raise ValueError("a witness entry is not a string, or the refutation does not verify")
    if admissible and not check_pair(digit_pair(p, digits)).admissible:
        raise ValueError("the digit set is stored as admissible but is not")
    return rec


class _Refutations:
    """The refutations of a sweep's record stream mod ``p``, each kept as the digit
    support S of its witness, the digits of the triples it weighs, mapped by the
    affine map that sends S's least digit to 0 and its second to 1.

    A digit set D that holds an image g(S) is refuted at the same b: g maps
    the solutions of x + by + cz = 0 to solutions, since 1 + b + c = 0, so
    the witness moved through g balances g(S), and padded with zeros it
    balances D, whose other digits' rows are zero. ``inherit`` writes that
    record. A support that holds an image of one kept before it is never the
    first found, so it is not kept; the support of an inherited record is one.
    """

    def __init__(self, p: int) -> None:
        self.p = p
        # (b, anchored support, [(anchored triple, weight)]) in the order kept
        self.kept: list[tuple[int, list[int], list]] = []
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def keep(self, rec: dict) -> None:
        """Keep the support of a refuted record not inherited, unless it holds a kept one."""
        if rec["admissible"] or rec.get("methods") == [[rec["refuted_b"], "inherited"]]:
            return
        p, b = self.p, rec["refuted_b"]
        rows = enumerate_progressions(digit_pair(p, rec["digits"]), make_line_equation(p, b)).rows
        columns = [(row, w) for row, w in zip(rows, map(int, rec["witness"])) if w]
        s0, s1 = sorted({d for row, _ in columns for d in row})[:2]
        scale = pow(s1 - s0, -1, p)
        columns = [(tuple((d - s0) * scale % p for d in row), w) for row, w in columns]
        support = sorted({d for row, _ in columns for d in row})
        if _first_image(self, tuple(support)) is None:
            self.kept.append((b, support, columns))
            self._arrays = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The digits of all anchored supports, ascending, and the 0/1 matrix of
        which support (row) holds which of them (column)."""
        if self._arrays is None:
            supports = [support for _, support, _ in self.kept]
            digits = np.array(sorted({d for support in supports for d in support}))
            incidence = np.zeros((len(supports), len(digits)))
            incidence[np.repeat(np.arange(len(supports)), [len(s) for s in supports]),
                      np.searchsorted(digits, np.concatenate(supports))] = 1
            self._arrays = digits, incidence
        return self._arrays

    def inherit(self, digits: tuple[int, ...], i: int, u: int, v: int) -> dict:
        """The refuted record of ``digits`` from kept refutation ``i``, through the
        map x -> u + (v - u) x of its anchored support into the digits."""
        p = self.p
        b, _, columns = self.kept[i]
        rows = enumerate_progressions(digit_pair(p, digits), make_line_equation(p, b)).rows
        index = {row: j for j, row in enumerate(rows)}
        witness = ["0"] * len(rows)
        for row, w in columns:
            witness[index[tuple((u + (v - u) * d) % p for d in row)]] = str(w)
        return {"p": p, "size": len(digits), "digits": list(digits), "admissible": False,
                "methods": [[b, "inherited"]], "refuted_b": b, "witness": witness}


@lru_cache(maxsize=None)
def _anchorings(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i != j, of k digits in ascending order."""
    return np.nonzero(~np.eye(k, dtype=bool))


def _first_image(refutations: _Refutations, digits: tuple[int, ...]):
    """(i, u, v) for the first kept support i of which ``digits`` holds an image,
    with the first anchoring u, v of the digits, ascending, that sends its
    anchored least digit 0 to u and 1 to v; None if there is none.

    Every anchoring of every support is tested at once: the images
    u + (v - u) e of the supports' digits e (below 2**62 in int64), looked up
    in the digits, and a count of the digits missing from each image.
    """
    if not refutations.kept:
        return None
    p = refutations.p
    elements, incidence = refutations.arrays()
    d = np.array(digits, np.int64)
    iu, iv = _anchorings(len(d))
    u = d[iu]
    images = (u[:, None] + (d[iv] - u)[:, None] % p * elements) % p
    held = d.take(np.searchsorted(d, images), mode="clip") == images
    hit = incidence @ (~held).T.astype(float) == 0  # [support, anchoring]: nothing missing
    first = int(hit.argmax())
    if not hit.flat[first]:
        return None
    i, a = divmod(first, len(u))
    return i, int(u[a]), int(d[iv[a]])


class _Checkpoint:
    """Append-only JSONL store of the candidate verdicts mod ``p``, keyed by (size, digits),
    that settles the missing ones while the budget lasts: at most ``room`` of them,
    and none once the clock is past ``deadline``. Stored verdicts cost no budget,
    so each budgeted run advances.

    A kill can tear only the last line, which then lacks its newline: that
    line is dropped and cut from the file before appending, and its
    candidate is checked again. Every other line is read as UTF-8 JSON and
    checked once, by ``_checked_record``, on opening; one that fails, a
    record of another modulus among them, raises ValueError naming the file
    and the line. A record without ``"p"`` (the earlier format) is read as
    one mod ``p``.
    Records are kept as stored, the witness as decimal strings; those
    settled in this run are not checked again.
    """

    def __init__(self, path, p: int, room: float, deadline: float) -> None:
        self.path = Path(path) if path else None
        self.p, self.room, self.deadline = p, room, deadline
        self.records: dict[tuple[int, tuple[int, ...]], dict] = {}
        if self.path and self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            for number, line in enumerate(data[:complete].splitlines(), 1):
                if line.strip():
                    try:
                        rec = _checked_record(json.loads(line.decode()), p)
                        self.records[(rec["size"], tuple(rec["digits"]))] = rec
                    except (ValueError, KeyError, TypeError, AttributeError,
                            RecursionError) as exc:
                        raise ValueError(f"checkpoint {self.path} line {number} is refused: "
                                         f"{exc!r:.200}") from exc
            if complete < len(data):
                os.truncate(self.path, complete)
        self._fh = self.path.open("a") if self.path else None
        self.budget_exhausted = False
        self.refutations = _Refutations(p)

    def level(self, size: int):
        """The records of ``candidates(p, size)`` in order: the stored ones, and
        the missing ones settled and appended.

        A missing candidate that holds an image of a support kept from the
        stream so far, stored or computed, at this level or below, inherits
        its refutation; any other is checked by ``check_pair``. Each record
        depends only on the records before it, so every resume and every
        budget cut writes the same records.

        The budget is checked before each missing candidate: when it is
        spent, the stream ends early and sets ``budget_exhausted``.
        """
        for digits in candidates(self.p, size):
            rec = self.records.get((size, digits))
            if rec is None:
                if self.room <= 0 or time.monotonic() > self.deadline:
                    self.budget_exhausted = True
                    return
                self.room -= 1
                hit = _first_image(self.refutations, digits)
                if hit is None:
                    rec = _candidate_record(self.p, digits)
                else:
                    rec = self.refutations.inherit(digits, *hit)
                if self._fh:
                    self._fh.write(_canonical_json(rec) + "\n")
                    self._fh.flush()
            self.refutations.keep(rec)
            yield rec

    def close(self) -> None:
        if self._fh:
            self._fh.close()


def max_admissible_size(
    p: int,
    *,
    checkpoint_path=None,
    workers: int = 1,
    cert_dir=None,
    min_size: int = 2,
    max_size: float = math.inf,
    max_seconds: float = math.inf,
    max_candidates: float = math.inf,
) -> SearchReport:
    """Find the largest admissible digit-set size and prove its maximality.

    Ascends through sizes; a size is settled by the first admissible
    candidate, and the sweep ends at the first size where the full scan
    refutes every candidate, which is the maximality proof for size - 1.
    The first admissible normal form is the first admissible set containing
    0 and 1, since its normal form sorts no higher and also holds 0 and 1.
    The bounds after ``p`` are keywords only, and ``math.inf``, their
    default, means no bound. The budget, ``max_seconds`` and
    ``max_candidates``, counts the candidates settled in this run, not the
    verdicts read back from the checkpoint; ``candidates_examined`` counts both.
    A candidate closed by an inherited refutation uses the budget as one
    checked by ``check_pair`` does: one candidate, and the clock is read before it.
    An exceeded budget yields a partial report (maximality not attempted),
    never an unproven claim; the same holds when the sweep is capped by
    ``max_size`` before reaching a fully refuted level, and when the
    first level it sweeps is already fully refuted. A ``max_size``
    above p - 1 is lowered to p - 1; ``min_size`` outside 2..p-1, a
    ``max_size`` below ``min_size`` or NaN, fewer than one worker, a negative
    or NaN budget, a size or candidate bound that is neither an int nor
    ``math.inf`` and a checkpoint holding verdicts of another modulus raise
    ValueError before any work starts. ``cert_dir`` receives the
    certificates of the witness bundle; the refutations live in the report,
    which ``verify_report_payload`` checks. ``workers`` is checked and changes
    nothing else: almost every candidate inherits, so the sweep runs in this process.
    """
    p = Prime(p)
    if not 2 <= min_size <= p - 1:
        raise ValueError(f"min_size must lie in 2..{p - 1}, got {min_size}")
    if not max_size >= min_size:  # NaN fails too
        raise ValueError(f"max_size must be at least min_size {min_size}, got {max_size}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    for name, limit in (("seconds", max_seconds), ("candidates", max_candidates)):
        if not limit >= 0:  # NaN fails too
            raise ValueError(f"the {name} budget must not be negative, got {limit}")
    for name, bound in (("min_size", min_size), ("max_size", max_size),
                        ("max_candidates", max_candidates)):
        if type(bound) is not int and bound != math.inf:
            raise ValueError(f"{name} must be an int or math.inf, got {bound!r}")
    ckpt = _Checkpoint(checkpoint_path, int(p), max_candidates, time.monotonic() + max_seconds)
    examined, best, refutations = 0, None, ()
    try:
        for size in range(min_size, min(max_size, p - 1) + 1):
            level = []
            for rec in ckpt.level(size):
                examined += 1
                if rec["admissible"]:
                    best = rec
                    break
                level.append(Refutation(tuple(rec["digits"]), rec["refuted_b"],
                                        tuple(int(v) for v in rec["witness"])))
            else:  # out of budget, or every candidate refuted: a proof if best is set
                refutations = () if ckpt.budget_exhausted or best is None else tuple(level)
                break
    finally:
        ckpt.close()
    witness = None if best is None else minimize_fixed_digits(best["digits"], p)
    if witness is not None and cert_dir is not None:
        for outcome in witness.outcomes:
            store_certificate(certificate_payload(witness.pair, outcome), cert_dir)
    return SearchReport(int(p), witness, examined, "proven" if refutations else "not-attempted",
                        refutations, ckpt.budget_exhausted)


def minimize_fixed_digits(digits, p: int) -> PairVerdict:
    """Verdict for the smallest (then lexicographically least) admissible set of fixed digits.

    The progressions depend on the digits and the equation alone, so each
    representative's table is enumerated once, and each fixed set F is
    settled by ``_settle`` on those rows with F pinned: the verdict of
    ``check_pair`` on F, which the first admissible F returns.

    A refuting witness balances the digits whose two rows of the all-pinned
    system (built once, for this read alone) it zeroes, so it refutes every F
    among them, which is then skipped. So is every F among an image g(B) of
    such a set B under a map g(x) = ax + t of the digits' stabiliser
    (``zp._affine_maps`` of the digits onto themselves): 1 + b + c = 0, so g
    maps the solutions of x + by + cz = 0 to solutions and permutes the digit
    set's progressions, and the witness moved through g balances g(B). Only
    refuted sets are skipped, so the verdict is that of the first admissible
    F in order. The last fixed set is the whole digit set, so an inadmissible
    set raises ValueError when the loop ends.
    """
    whole = digit_pair(p, digits)
    p, digits = whole.p, whole.digits
    tables = [enumerate_progressions(whole, make_line_equation(p, b))
              for b in equation_classes(p).representatives]
    systems = [build_constraint_system(table) for table in tables]
    maps = _affine_maps(digits, digits, p)
    balanced: set[frozenset[int]] = set()
    for size in range(len(digits) + 1):
        for fixed in combinations(digits, size):
            if any(b.issuperset(fixed) for b in balanced):
                continue
            pair = DigitSetPair(p, digits, fixed)
            verdict = _settle(pair, (ProgressionTable(pair, table.equation, table.rows)
                                     for table in tables))
            if verdict.admissible:
                return verdict
            system = systems[len(verdict.outcomes) - 1]
            sums = zip(system.row_labels, _row_sums(system, verdict.outcomes[-1].proof.witness))
            kept = set(digits) - {d for (_, d), v in sums if v}
            balanced.update(frozenset((a * d + t) % p for d in kept) for a, t in maps)
    raise ValueError(f"digit set {digits} is not admissible mod {p}")
