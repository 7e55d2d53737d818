"""Canonical bytes pinned across kernel changes.

The report of a maximality sweep and the names of content-addressed
certificates are part of the output contract: a change to the arithmetic
inside the cone test or the echelon form must not move a byte. The values
below were recorded with the ``Fraction`` elimination kernel that preceded
the fraction-free one.

The sweep checks one normal form per affine orbit. Run on the full stream
of candidates that contain 0 and 1 (``oracles.all_candidates``), it still
writes the reports and checkpoints pinned before that change; the orbit
sweep's checkpoint is that checkpoint with only the normal forms kept, and
its report differs only in ``candidates_examined`` and the refutations.
"""

import hashlib
import json

import pytest

import golden as G
from oracles import all_candidates
from affinecaps import digit_pair, normalize_digit_set, search
from affinecaps.cone import ConeCertificate
from affinecaps.search import (
    RepOutcome,
    SearchBudget,
    certificate_payload,
    check_pair,
    max_admissible_size,
    render_report,
    store_certificate,
    verify_report_payload,
)

# SHA-256 of render_report(max_admissible_size(p))
REPORT_SHA256 = {
    5: "7603f96ea20b010d69360b06e0111c33b4cb08c4705287bd6e010efea3bda2dd",
    7: "abd77d7387da208c8c5c75b2a9c5d2f5b4ac9aa8374a7a34c2f383c1481d2c4c",
    11: "dce1c6fa7ba2c2550aaccf983b1a3fbde37ff8d96d9aeff6f52a5782e417aea8",
    13: "a8d26ab816b23c1c0e207bf2232fb5c31453affed3e68afb9b27768404ecebdb",
}

# the same, with the sweep run on oracles.all_candidates
FULL_STREAM_REPORT_SHA256 = {
    5: "12ba1f6f6e13e029bb406dc6fbef5a138b9113af054c4eb74edef706262f67f0",
    7: "1701584ab1c55b91a29fd248a7d2670541950553962f8710dfe27676a0872dd8",
    11: "a1ea5531f47eff04f7fe49f94718f7cb6288d4cee160b177a20a5e05321bdff8",
    13: "d57a011ddc38b92ace5fb63163f8f63666a02bd0b3cbdd545cfc3901a5d75c61",
}

# store_certificate names of the check_pair outcomes of each published pair, in order
PUBLISHED_CERTIFICATES = {
    11: (
        "3d23125b5b33400eee726569ce46394c39c48d3dbc2c40913a5cf23156b69cb2",
        "460a554b53bd4f4e769e0d7508f73d75c5aa592c0e99a7418d10666001b1d5e8",
    ),
    17: (
        "ab022f71d135119b1ef3904e44e1c9dff18387db7eb92371c6e90f19a2cdc3c5",
        "a8bccf3883404c6550e89ba3f775fdaf025e735e24ac3d49a72f963e912fcb0a",
        "51ce88581293b99b0722243f80242b9f8c13e938d31801f9fd197ae3c252d0df",
    ),
    23: (
        "a4ca4db517350bd97f001e9ffbd784e6efeeb32da73eb865e855f13465b56411",
        "77b82db3f3cd77c08461780a3e33069aa1b7843e732c77ecdd5bb80fcd5beb13",
        "81a9d0a8f10bcdf08d0a2b208ce7d7710c1442b7ad2e871362419b359fb13a3e",
        "20997a99207f3afcc5e017fa10f88a286fddccef5358b502c8a33d9162bac111",
    ),
    29: (
        "de17aa1b904bdd47611ee37f5680ec669ad704066282e92dce8a5b01dbe1937a",
        "f1fb60f6e9bb59efc40cbbe0b667d809605738939492ba7c00743574743ed492",
        "89b694de9ddc5ded7689f44d38a38171f53413c84b70671a4e7e66d6de7b9ff9",
        "803c0b03cd2c9f2a7b78ed83b9a1e8443797b24667ab0ecd3135ac82d20d205e",
        "d9a10648858a6c46f4f6deda316ea9331059a505ca4d22f66c6aad7edc2c20e2",
    ),
    41: (
        "18cb4962469ab11c68816d6bfc9d90ec88a3c130d0ddb91e8093a0ddbd237904",
        "8507518cb51eeb14cbd4c138f907664a1307e3ab47018efefec1515573a5d3cd",
        "5f9b7cb4f36ce917ac6b11c3c77d45bc9804a9900d6617f859c053a6a52a0413",
        "05c9ff483a1c7bdb4281335ab2c3fa0d938e385c256fb3b4838b00397322ed23",
        "0286d06973fd6ee339a721dd8b97bbccb0985e4f2e1afa73d1538b17588098e5",
        "d40229540ebdd311954ef07b39c066138413d136700fbfdee56be427defaa37a",
        "f0c1093395eb5d4551cde7dc3660d53dcadbd876ed268b148f30a336aa402ab3",
    ),
}

# sorted names of the certificate files that max_admissible_size(p, cert_dir=...)
# writes: the certificates of the witness bundle, the documents that ``check``
# writes for the witness pair
SWEEP_CERTIFICATES = {
    7: (
        "4c779b134853d52096d8873f67e4487036c7042756f72d7994a7ee941614e68a",
        "b4633be40b661d88c29d1e7809ee5948cfe87accc18811e884e2c89608735315",
    ),
    11: (
        "23595764eb9c15f2023fef38b1e965716002f920bdd3aae2a4ec3a9d9ecb2ea1",
        "c6040498c6d17a53e60a86e4132ca481adf75f037d9d6183c89580a724ce26bb",
    ),
}

# SHA-256 of the checkpoint file written by the same sweep, with or without cert_dir;
# each record names its modulus under "p"
SWEEP_CHECKPOINT_SHA256 = {
    7: "d31a902afad82b27048658fa2f1b51343a738d2b86ebd72d90ba6f18d4f5657e",
    11: "743adebe84bc29c8cb5254544053b49a1268012b9d00cc10eb358c15dde48d7f",
}

# the same, with the sweep run on oracles.all_candidates
FULL_STREAM_CHECKPOINT_SHA256 = {
    7: "2c514bf5e7a4f800f0fba806d6700775241ad0761e32e6f1d1d7b2701b531f68",
    11: "2f8926a6dd1c85be5a618b5444f120465248f21f5c020931ca18c1928b9d1593",
}

# SHA-256 of the full-stream checkpoint that the sweep wrote while it also stored
# one certificate file per refuted candidate: each refuted record then carried the
# file's name under "cert", and no record carried "p"
CERT_NAMED_CHECKPOINT_SHA256 = {
    7: "8bdf504289bf9a8168fc71a22bb041eb2fcf45b9574231131b0ffd5ebb29dca2",
    11: "c8d33866bead53bf264fc533afe05db8331e6004da909f65da11a90e8a61f8b4",
}


@pytest.fixture
def full_stream(monkeypatch):
    """Sweep every candidate that contains 0 and 1, as before the orbit candidates."""
    monkeypatch.setattr(search, "candidates", all_candidates)


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("p", sorted(REPORT_SHA256))
def test_sweep_report_bytes_are_pinned(p):
    assert sha256(render_report(max_admissible_size(p))) == REPORT_SHA256[p]


def test_published_pair_certificate_names_are_pinned(tmp_path):
    assert sorted(PUBLISHED_CERTIFICATES) == sorted(G.PUBLISHED_PAIRS)
    for p, (digits, fixed) in G.PUBLISHED_PAIRS.items():
        pair = digit_pair(p, digits, fixed)
        names = tuple(store_certificate(certificate_payload(pair, outcome), tmp_path / str(p))
                      for outcome in check_pair(pair).outcomes)
        assert names == PUBLISHED_CERTIFICATES[p], p
        assert sorted(f.name for f in (tmp_path / str(p)).iterdir()) == \
            sorted(f"{name}.json" for name in names)


@pytest.mark.parametrize("p", sorted(SWEEP_CERTIFICATES))
def test_sweep_certificate_names_and_checkpoint_are_pinned(tmp_path, p):
    for workers in (1, 2):
        checkpoint_path, cert_dir = tmp_path / f"w{workers}.jsonl", tmp_path / f"w{workers}"
        report = max_admissible_size(p, checkpoint_path=checkpoint_path, workers=workers,
                                     cert_dir=cert_dir)
        names = sorted(f.name for f in cert_dir.iterdir())
        assert names == [f"{name}.json" for name in SWEEP_CERTIFICATES[p]], workers
        bundle = {store_certificate(certificate_payload(report.witness.pair, outcome),
                                    tmp_path / "bundle")
                  for outcome in report.witness.outcomes}
        assert bundle == set(SWEEP_CERTIFICATES[p]), workers
        assert sha256(checkpoint_path.read_bytes()) == SWEEP_CHECKPOINT_SHA256[p], workers


@pytest.mark.parametrize("p", sorted(FULL_STREAM_REPORT_SHA256))
def test_the_full_stream_sweep_writes_the_earlier_pins(tmp_path, full_stream, p):
    checkpoint_path = tmp_path / "full.jsonl"
    report = render_report(max_admissible_size(p, checkpoint_path=checkpoint_path))
    assert sha256(report) == FULL_STREAM_REPORT_SHA256[p]
    if p in FULL_STREAM_CHECKPOINT_SHA256:
        assert sha256(checkpoint_path.read_bytes()) == FULL_STREAM_CHECKPOINT_SHA256[p]
    # the report that lists every candidate is a maximality proof as well
    assert verify_report_payload(json.loads(report))


@pytest.mark.parametrize("p", sorted(SWEEP_CHECKPOINT_SHA256))
def test_the_checkpoint_is_the_full_stream_one_with_only_normal_forms_kept(
        tmp_path, monkeypatch, p):
    full, orbits = tmp_path / "full.jsonl", tmp_path / "orbits.jsonl"
    max_admissible_size(p, checkpoint_path=orbits)
    with monkeypatch.context() as patch:
        patch.setattr(search, "candidates", all_candidates)
        max_admissible_size(p, checkpoint_path=full)
    digits = [tuple(json.loads(line)["digits"]) for line in full.read_text().splitlines()]
    kept = [line for line, d in zip(full.read_text().splitlines(keepends=True), digits)
            if normalize_digit_set(d, p) == d]
    assert len(kept) < len(digits) and "".join(kept) == orbits.read_text()
    assert sha256(orbits.read_bytes()) == SWEEP_CHECKPOINT_SHA256[p]


def with_certificate_names(checkpoint: bytes, p: int, cert_dir) -> bytes:
    """The checkpoint in the format before records named their modulus: "p" dropped,
    and the certificate name of each refutation added under "cert"."""
    lines = []
    for line in checkpoint.decode().splitlines():
        rec = json.loads(line)
        assert rec.pop("p") == p
        if not rec["admissible"]:
            refuting = RepOutcome(rec["refuted_b"], ConeCertificate(
                "nontrivial", witness=tuple(int(v) for v in rec["witness"])))
            rec["cert"] = store_certificate(
                certificate_payload(digit_pair(p, rec["digits"]), refuting), cert_dir)
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("p", sorted(SWEEP_CERTIFICATES))
def test_the_checkpoint_is_the_cert_named_one_without_its_names(tmp_path, monkeypatch, p):
    fresh = tmp_path / "fresh.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(search, "candidates", all_candidates)
        max_admissible_size(p, checkpoint_path=fresh)
        assert sha256(fresh.read_bytes()) == FULL_STREAM_CHECKPOINT_SHA256[p]
        named = with_certificate_names(fresh.read_bytes(), p, tmp_path / "refutations")
        assert sha256(named) == CERT_NAMED_CHECKPOINT_SHA256[p]
        # a checkpoint whose records carry "cert" resumes to the same report bytes
        resumed = tmp_path / "named.jsonl"
        resumed.write_bytes(named)
        report = max_admissible_size(p, checkpoint_path=resumed, cert_dir=tmp_path / "certs")
        assert sha256(render_report(report)) == FULL_STREAM_REPORT_SHA256[p]
        assert resumed.read_bytes() == named
    assert sorted(f.stem for f in (tmp_path / "certs").iterdir()) == \
        list(SWEEP_CERTIFICATES[p])
    # the orbit sweep reads its verdicts from the full-stream checkpoint
    report = max_admissible_size(p, checkpoint_path=resumed, cert_dir=tmp_path / "orbit-certs")
    assert sha256(render_report(report)) == REPORT_SHA256[p]
    assert resumed.read_bytes() == named
    assert sorted(f.stem for f in (tmp_path / "orbit-certs").iterdir()) == \
        list(SWEEP_CERTIFICATES[p])


def assert_the_cut_resumes(checkpoint_path, p, budget, examined, workers, pinned):
    cut = max_admissible_size(p, budget, checkpoint_path, workers)
    lines = checkpoint_path.read_bytes().splitlines()
    assert len(lines) == cut.candidates_examined == examined
    report = max_admissible_size(p, checkpoint_path=checkpoint_path, workers=workers)
    assert sha256(render_report(report)) == pinned
    assert checkpoint_path.read_bytes().splitlines()[:len(lines)] == lines
    assert cut.budget_exhausted == (examined < report.candidates_examined)
    if cut.budget_exhausted:  # a cut inside the refuted level proves nothing
        assert cut.maximality == "not-attempted" and cut.refutations == ()


# (p, budget, candidates examined): every candidate budget up to the whole p = 7
# sweep (4 candidates) and one past it; for p = 11, the first candidate, one
# inside the final level, the last one of that level before the proof (the final
# level holds candidates 5 to 10), and no time at all
BUDGET_CUTS = ([(7, SearchBudget(max_candidates=k), min(k, 4)) for k in range(6)]
               + [(11, SearchBudget(max_candidates=k), k) for k in (1, 7, 9)]
               + [(11, SearchBudget(max_seconds=0), 0)])

# the same cuts of the full stream, which holds 12 candidates for p = 7 and 130
# for p = 11, with the final level at candidates 5 to 130
FULL_STREAM_BUDGET_CUTS = ([(7, SearchBudget(max_candidates=k), min(k, 12)) for k in range(14)]
                           + [(11, SearchBudget(max_candidates=k), k) for k in (1, 64, 129)]
                           + [(11, SearchBudget(max_seconds=0), 0)])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p, budget, examined", BUDGET_CUTS)
def test_every_budget_cut_of_the_orbit_sweep_resumes_to_the_pinned_report(
        tmp_path, p, budget, examined, workers):
    assert_the_cut_resumes(tmp_path / "cut.jsonl", p, budget, examined, workers,
                           REPORT_SHA256[p])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p, budget, examined", FULL_STREAM_BUDGET_CUTS)
def test_every_budget_cut_resumes_to_the_pinned_report(
        tmp_path, full_stream, p, budget, examined, workers):
    assert_the_cut_resumes(tmp_path / "cut.jsonl", p, budget, examined, workers,
                           FULL_STREAM_REPORT_SHA256[p])


@pytest.mark.parametrize("stream, p, k, total", [
    ("orbits", 7, 1, 4), ("orbits", 11, 4, 10), ("full", 11, 64, 130)])
def test_each_budgeted_run_checks_k_more_candidates(tmp_path, monkeypatch, stream, p, k, total):
    if stream == "full":
        monkeypatch.setattr(search, "candidates", all_candidates)
    pinned = (REPORT_SHA256 if stream == "orbits" else FULL_STREAM_REPORT_SHA256)[p]
    checkpoint_path = tmp_path / "budgeted.jsonl"
    for run in range(1, -(-total // k)):  # every run that the budget stops
        cut = max_admissible_size(p, SearchBudget(max_candidates=k), checkpoint_path)
        assert len(checkpoint_path.read_bytes().splitlines()) == cut.candidates_examined \
            == run * k
        assert cut.budget_exhausted and cut.maximality == "not-attempted"
    report = max_admissible_size(p, SearchBudget(max_candidates=k), checkpoint_path)
    assert report.candidates_examined == total and not report.budget_exhausted
    assert sha256(render_report(report)) == pinned
