import errno
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golden as G
from affinecaps.capset import build_cap, write_points
from affinecaps.cli import main
from affinecaps.search import max_admissible_size, render_report
from affinecaps.zp import digit_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_progressions_text(capsys):
    code, out, _ = run(capsys, "progressions", "-p", "11", "-D", "0,1,3,4,5", "-b", "9")
    assert code == 0
    assert "4 non-trivial weighted progressions" in out
    assert "(1, 3, 5)" in out and "x + z = 2y" in out


def test_progressions_json_and_b8(capsys):
    code, out, _ = run(capsys, "--format", "json", "progressions",
                       "-p", "11", "-D", "0,1,3,4,5", "-b", "8")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8
    assert rows == sorted([list(t) for t in G.P11_TABLE_B8])


def test_progressions_usage_errors(capsys):
    code, _, err = run(capsys, "progressions", "-p", "11", "-D", "0,1,x", "-b", "9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "progressions", "-p", "11", "-D", "0,1,3", "-b", "10")
    assert code == 2
    code, _, err = run(capsys, "progressions", "-p", "11", "-D", "0,1,12", "-b", "9")
    assert code == 2  # digit outside the residue range


def test_check_admissible_writes_certificates(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out", str(tmp_path), "check", "-p", "23",
        "-D", "0,1,3,4,8,9,10,12,17", "--Dprime", "0,1,3,4,8,10,17",
    )
    assert code == 0
    assert "admissible" in out
    certs = sorted((tmp_path / "certs").glob("*.json"))
    assert len(certs) == 4  # one per equation-class representative
    for path in certs:
        code, out, _ = run(capsys, "cert-verify", str(path))
        assert code == 0 and "certificate ok" in out


def test_check_inadmissible_exit_code(tmp_path, capsys):
    code, out, _ = run(capsys, "--out", str(tmp_path), "check",
                       "-p", "13", "-D", "0,1,2,3,4")
    assert code == 1
    assert "inadmissible" in out


# the certificate that ``check`` stores for b=1 of the p=11 pair below
P11_B1_STEPS = [{"position": 3, "digit": 1, "removed": [[1, 5, 3], [5, 1, 3]]},
                {"position": 3, "digit": 3, "removed": [[3, 5, 4], [5, 3, 4]]}]
P11_B1_CERT = {"p": 11, "digits": [0, 1, 3, 4, 5], "fixed": [0, 1, 3], "b": 1, "method": "digit",
               "trace": {"kind": "digit", "verdict": "reduced-to-empty", "steps": P11_B1_STEPS}}


def test_cert_verify_rejects_tampering(tmp_path, capsys):
    code, _, _ = run(capsys, "--out", str(tmp_path), "check",
                     "-p", "11", "-D", "0,1,3,4,5", "--Dprime", "0,1,3")
    assert code == 0
    stored = [json.loads(path.read_text()) for path in (tmp_path / "certs").glob("*.json")]
    assert P11_B1_CERT in stored
    cert_path = next((tmp_path / "certs").glob("*.json"))
    data = json.loads(cert_path.read_text())
    if "trace" in data and data["trace"]["steps"]:
        data["trace"]["steps"][0]["digit"] = 4
    else:
        data["certificate"]["dual"][0] = "0"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, out, _ = run(capsys, "cert-verify", str(tampered))
    assert code == 1 and "FAILED" in out


def test_cert_verify_rejects_a_truncated_matrix_trace(tmp_path, capsys):
    # representative b=1 of this pair closes by the matrix rule only
    code, _, _ = run(capsys, "--out", str(tmp_path), "check", "-p", "17",
                     "-D", "0,1,3,11,14,16", "--Dprime", "0,1,14,16")
    assert code == 0
    cert_path = next(path for path in (tmp_path / "certs").glob("*.json")
                     if json.loads(path.read_text())["method"] == "matrix")
    code, out, _ = run(capsys, "cert-verify", str(cert_path))
    assert code == 0 and "certificate ok" in out
    data = json.loads(cert_path.read_text())
    assert data["trace"]["verdict"] == "reduced-to-empty"
    data["trace"]["steps"].pop()
    truncated = tmp_path / "truncated.json"
    for verdict in ("reduced-to-empty", "stuck"):
        # relabelled stuck, the truncated trace replays faithfully but proves nothing
        data["trace"]["verdict"] = verdict
        truncated.write_text(json.dumps(data))
        code, out, _ = run(capsys, "cert-verify", str(truncated))
        assert code == 1 and "FAILED" in out, verdict


@pytest.mark.parametrize("document", [
    [],
    {"p": 11, "digits": [0, 1, 3, 4, 5], "fixed": [0, 1, 3], "b": 9, "method": "digit",
     "trace": {"kind": "digit", "verdict": "reduced-to-empty", "steps": [1]}},
    {"p": 11, "digits": [0, 1, 3, 4, 5], "fixed": [0, 1, 3], "b": 9, "method": "cone",
     "certificate": {"kind": "trivial", "dual": 5}},
    {"p": 11, "digits": [0, 1, 3, 4, 5], "fixed": [0, 1, 3], "b": 9, "method": "cone",
     "certificate": {"kind": "trivial", "dual": ["1/0", "1", "1", "1", "1", "1"]}},
    {"p": 11, "digits": [0, 1, 3, 4, 5], "fixed": [0, 1, 3], "b": 9, "method": "cone",
     "certificate": {"kind": "bogus", "dual": ["1", "1", "1", "1", "1", "1"]}},
    # truncated, these floats are the true witness (1, 0, 1, 0, 1, 0) of this pair
    {"p": 13, "digits": [0, 1, 2, 3, 4], "fixed": [0, 1, 2, 3, 4], "b": 3, "method": "cone",
     "certificate": {"kind": "nontrivial", "witness": [1.9, 0, 1, 0, 1.5, 0]}},
    {"p": 13, "digits": [0, 1, 2, 3, 4], "fixed": [0, 1, 2, 3, 4], "b": 3, "method": "digit",
     "trace": {"kind": "digit", "verdict": "bogus", "steps": []}},
    # JSON booleans standing for 1 and 0 in a stored certificate
    {**P11_B1_CERT, "b": True},
    {**P11_B1_CERT, "digits": [False, True, 3, 4, 5]},
    {**P11_B1_CERT, "trace": {**P11_B1_CERT["trace"], "steps": [
        {**P11_B1_STEPS[0], "digit": True}, P11_B1_STEPS[1]]}},
    {**P11_B1_CERT, "method": "oracle"},
], ids=["top-level-list", "digit-step-not-object", "dual-not-list", "dual-zero-denominator",
        "unknown-kind", "witness-of-floats", "unknown-verdict", "boolean-b",
        "boolean-digits", "boolean-step-digit", "unknown-method"])
def test_cert_verify_malformed_document_is_an_input_error(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "cert-verify", str(path))
    assert code == 2 and err.startswith("error: ")


def test_cert_verify_checks_a_whole_maximality_proof(tmp_path, capsys):
    code, _, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "11")
    assert code == 0
    code, out, err = run(capsys, "cert-verify", str(tmp_path / "search_p11.json"))
    assert (code, out, err) == (0, "report ok\n", "")


@pytest.fixture(scope="module")
def earlier_documents(tmp_path_factory):
    """A p = 11 sweep report and a cone, digit and matrix certificate, re-encoded
    with the two-space indent that reports and certificates were once written in."""
    out = tmp_path_factory.mktemp("earlier")
    assert main(["--out", str(out / "sweep"), "search", "-p", "11"]) == 0
    assert main(["--out", str(out / "pair"), "check", "-p", "23",
                 "-D", "0,1,3,4,8,9,10,12,17", "--Dprime", "0,1,3,4,8,10,17"]) == 0
    documents = {json.loads(path.read_text())["method"]: path
                 for path in (out / "pair" / "certs").glob("*.json")}
    assert sorted(documents) == ["cone", "digit", "matrix"]
    documents["report"] = out / "sweep" / "search_p11.json"
    for path in documents.values():
        indented = json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n"
        assert indented.count("\n") > 1
        path.write_text(indented)
    return documents


@pytest.mark.parametrize("document", ["report", "cone", "digit", "matrix"])
def test_documents_in_the_earlier_indented_form_still_verify(
        earlier_documents, capsys, document):
    # every reader parses JSON, so documents written with an indent still verify
    verdict = "report ok\n" if document == "report" else "certificate ok\n"
    code, out, err = run(capsys, "cert-verify", str(earlier_documents[document]))
    assert (code, out, err) == (0, verdict, "")


@pytest.fixture(scope="module")
def report_p11():
    return render_report(max_admissible_size(11))


def swap_refutations(report):
    """Each of two refuted digit sets listed with the other's witness."""
    refutations = report["refutations"]
    refutations[4]["digits"], refutations[5]["digits"] = \
        refutations[5]["digits"], refutations[4]["digits"]


def bump_witness_entry(report):
    witness = report["refutations"][0]["witness"]
    witness[witness.index("1")] = "2"


def replace_bundle_entry_by_a_refutation(report):
    refutation = report["refutations"][0]
    report["witness"]["bundle"][-1] = {
        "b": report["witness"]["bundle"][-1]["b"], "method": "cone", "trivial": False,
        "certificate": {"kind": "nontrivial", "witness": refutation["witness"]}}


def change_bundle_trace(report):
    report["witness"]["bundle"][0]["trace"]["steps"][0]["digit"] = 4


@pytest.mark.parametrize("tamper", [
    lambda r: r["refutations"].pop(5),
    lambda r: r["refutations"].__setitem__(5, r["refutations"][4]),
    swap_refutations,
    bump_witness_entry,
    change_bundle_trace,
    lambda r: r.update(max_size=r["max_size"] + 1),
    lambda r: r["witness"]["bundle"].pop(),
    replace_bundle_entry_by_a_refutation,
    lambda r: r.update(witness=None, max_size=None),
    lambda r: r.update(witness=None, max_size=None, refutations=[]),
    lambda r: r.update(maximality="not-attempted"),
    lambda r: r.update(budget_exhausted=True),
    lambda r: r["witness"]["bundle"][0].update(trivial=False),
    lambda r: r.update(candidates_examined=len(r["refutations"]) - 1),
    lambda r: r.update(candidates_examined=-1, maximality="not-attempted", refutations=[]),
], ids=["refutation-dropped", "refutation-duplicated", "refutations-swapped",
        "witness-entry-changed", "bundle-trace-changed", "max-size-raised",
        "bundle-entry-dropped", "bundle-entry-replaced-by-a-refutation",
        "proven-without-witness", "proven-without-witness-or-refutations",
        "not-attempted-with-refutations", "proven-with-budget-exhausted",
        "bundle-entry-flagged-not-trivial", "fewer-examined-than-refuted",
        "negative-examined-count"])
def test_cert_verify_rejects_a_tampered_report(tmp_path, capsys, report_p11, tamper):
    report = json.loads(report_p11)
    tamper(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "cert-verify", str(path))
    assert (code, out, err) == (1, "report FAILED\n", "")


def test_cert_verify_refuses_a_report_at_a_huge_modulus_at_once(tmp_path, capsys, report_p11):
    report = json.loads(report_p11)
    report["p"] = 2 ** 31 - 1  # prime: listing its equation classes would take minutes
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(report))
    t0 = time.monotonic()
    code, out, err = run(capsys, "cert-verify", str(path))
    assert (code, out, err) == (1, "report FAILED\n", "")
    assert time.monotonic() - t0 < 3.0


NO_WITNESS = {"witness": None, "max_size": None, "maximality": "not-attempted", "refutations": []}


def flag_first_bundle_entry(flag):
    return lambda report: report["witness"]["bundle"][0].update(trivial=flag)


def drop_a_bundle_entry_and_flag_the_budget_with_a_string(report):
    report["witness"]["bundle"].pop()
    report["budget_exhausted"] = "yes"


@pytest.mark.parametrize("change", [
    {"witness": 5}, {"refutations": {}}, {"maximality": "maybe"}, {"bundle": [1]},
    {"p": 4, **NO_WITNESS}, {"p": 1, **NO_WITNESS}, {"p": 4}, {"p": 10 ** 30}, {"p": "11"},
    {"max_size": 5.0}, {"max_size": "5"}, {"budget_exhausted": "yes"},
    {"budget_exhausted": 0}, {"budget_exhausted": "yes", **NO_WITNESS},
    drop_a_bundle_entry_and_flag_the_budget_with_a_string,
    flag_first_bundle_entry(0), flag_first_bundle_entry("nonsense"),
    {"candidates_examined": "lots"}, {"candidates_examined": 10.0},
    {"candidates_examined": True},
], ids=["witness-number", "refutations-object", "unknown-maximality", "bundle-of-numbers",
        "p-4-without-witness", "p-1-without-witness", "p-4", "p-10**30", "p-string",
        "max-size-float", "max-size-string", "budget-exhausted-string",
        "budget-exhausted-number", "budget-exhausted-string-without-witness",
        "budget-exhausted-string-with-a-short-bundle", "trivial-flag-number",
        "trivial-flag-string", "candidates-examined-string", "candidates-examined-float",
        "candidates-examined-boolean"])
def test_cert_verify_malformed_report_is_an_input_error(tmp_path, capsys, report_p11, change):
    report = json.loads(report_p11)
    if callable(change):
        change(report)
    elif "bundle" in change:
        report["witness"].update(change)
    else:
        report.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "cert-verify", str(path))
    assert code == 2 and not out and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("document, field", [
    ({"maximality": "proven"}, "p"),
    ({k: v for k, v in P11_B1_CERT.items() if k != "method"}, "method"),
    ("report", "candidates_examined"),  # the p = 11 report without the field
])
def test_cert_verify_names_a_missing_field(tmp_path, capsys, report_p11, document, field):
    if document == "report":
        document = {k: v for k, v in json.loads(report_p11).items() if k != field}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "cert-verify", str(path))
    assert code == 2 and not out and err == f"error: missing field {field!r}\n"


DEEP = "[" * 100000 + "]" * 100000  # past the recursion limit of the JSON decoder


def test_cert_verify_of_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out, err = run(capsys, "cert-verify", str(path))
    assert code == 2 and not out and err.startswith("error: ")


@pytest.mark.parametrize("digit", [2.0, 2.5, "2", True, -3, 99],
                         ids=["float", "fraction", "string", "boolean", "negative", "too-large"])
def test_cert_verify_rejects_a_refuted_digit_that_is_no_residue(tmp_path, capsys, report_p11,
                                                                 digit):
    report = json.loads(report_p11)
    report["refutations"][0]["digits"][-1] = digit
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "cert-verify", str(path))
    assert code == 2 and not out and err.startswith("error: ") and "Traceback" not in err


def test_check_with_an_empty_fixed_set_pins_nothing(tmp_path, capsys):
    # with nothing pinned the b=1 cone of this pair is nontrivial
    code, out, _ = run(capsys, "--format", "json", "--out", str(tmp_path), "check",
                       "-p", "11", "-D", "0,1,3,4,5", "--Dprime", "")
    assert code == 1
    summary = json.loads(out)
    assert summary["fixed"] == [] and not summary["admissible"]


def test_verify_build_mode_with_an_empty_fixed_set(capsys):
    # every word over D, so 5**5 points with collinear triples among them
    code, out, _ = run(capsys, "--format", "json", "verify", "-p", "11", "-D", "0,1,3,4,5",
                       "--Dprime", "", "-n", "5")
    assert code == 1
    result = json.loads(out)
    assert result["points"] == 5 ** 5 and "violation" in result


def test_verify_build_mode(capsys):
    code, out, _ = run(capsys, "verify", "-p", "11", "-D", "0,1,3,4,5",
                       "--Dprime", "0,1,3", "-n", "5")
    assert code == 0
    assert "240 points" in out


@pytest.mark.parametrize("fixed, code", [("0,1,3", 0), ("", 1)])
def test_verify_saved_points_verify_alike_from_their_file(tmp_path, capsys, fixed, code):
    path = tmp_path / "cap.txt"
    built = run(capsys, "--format", "json", "verify", "-p", "11", "-D", "0,1,3,4,5",
                "--Dprime", fixed, "-n", "5", "--save-points", str(path))
    read = run(capsys, "--format", "json", "verify", "-p", "11", "--points-file", str(path))
    assert built == read and built[0] == code
    assert json.loads(built[1])["points"] == len(path.read_text().splitlines())


def test_verify_points_file_roundtrip(tmp_path, capsys):
    cap = build_cap(digit_pair(11, G.P11_DIGITS, G.P11_FIXED), 5)
    path = tmp_path / "cap.txt"
    write_points(cap, path)
    code, out, _ = run(capsys, "verify", "-p", "11", "--points-file", str(path))
    assert code == 0 and "240 points" in out

    # plant a third point of a line
    x, y = cap.points[0], cap.points[1]
    bad = tuple((2 * b - a) % 11 for a, b in zip(x, y))
    path.write_text(path.read_text() + " ".join(map(str, bad)) + "\n")
    code, out, _ = run(capsys, "verify", "-p", "11", "--points-file", str(path))
    assert code == 1 and "violation" in out


@pytest.mark.parametrize("rows, message", [
    ("0 1 2\n0 1 13\n", "[0, 11)"),  # 13 is 2 mod 11: one point twice
    ("0 1 2\n0 1\n", "one dimension"),
])
def test_verify_points_file_rejects_malformed_points(tmp_path, capsys, rows, message):
    path = tmp_path / "points.txt"
    path.write_text(rows)
    code, out, err = run(capsys, "verify", "-p", "11", "--points-file", str(path))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command", ["cert-verify", "verify"])
def test_a_modulus_from_2_31_up_is_an_input_error_at_once(tmp_path, capsys, command):
    # 2**61 - 1 is prime: trial division up to its square root takes minutes
    huge = 2 ** 61 - 1
    path = tmp_path / "input"
    if command == "cert-verify":
        path.write_text(json.dumps({**P11_B1_CERT, "p": huge}))
        argv = ("cert-verify", str(path))
    else:
        path.write_text("0 1\n1 0\n")
        argv = ("verify", "-p", str(huge), "--points-file", str(path))
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and not out and "2**31" in err


@pytest.mark.parametrize("extra", [
    ("-D", "0,1,2"), ("--Dprime", "0"), ("-n", "3"), ("--save-points", "out.txt"),
    ("-D", "0,1,2", "-n", "3", "--save-points", "out.txt"),
])
def test_verify_refuses_a_points_file_with_build_options(tmp_path, capsys, extra):
    path = tmp_path / "pts.txt"
    path.write_text("0 1\n1 0\n")
    argv = [arg.replace("out.txt", str(tmp_path / "out.txt")) for arg in extra]
    code, out, err = run(capsys, "verify", "-p", "7", "--points-file", str(path), *argv)
    assert code == 2 and not out and err.startswith("error: ") and extra[0] in err
    assert sorted(tmp_path.iterdir()) == [path]


def test_verify_missing_arguments(capsys):
    code, _, err = run(capsys, "verify", "-p", "11")
    assert code == 2


def test_table_five_decimal_columns(capsys):
    code, out, _ = run(capsys, "table", "-p", "5,7,11,13,17,19,23")
    assert code == 0
    lines = out.splitlines()
    for p in (5, 7, 11, 13, 17, 19, 23):
        bose_v, product_v, new_bound = G.BOUND_TABLE[p]
        row = next(ln for ln in lines if ln.split()[0] == str(p))
        fields = row.split()
        assert fields[1] == f"{bose_v:.5f}"
        assert fields[2] == f"{product_v:.5f}"
        assert fields[3] == str(new_bound)
    row11 = next(ln for ln in lines if ln.split()[0] == "11").split()
    assert row11[4] == "0.67118"


def test_table_ends_with_the_upper_bound_base(capsys):
    # p * J(p) is the minimum of (1 - t^p) / ((1 - t) t^((p-1)/3)) over 0 < t < 1,
    # here on a grid, independent of the golden-section search
    p, grid = 23, 40009
    on_grid = min((1 - t ** p) / ((1 - t) * t ** ((p - 1) / 3))
                  for t in (i / grid for i in range(1, grid)))
    code, out, _ = run(capsys, "table", "-p", str(p))
    assert code == 0
    header, row = out.splitlines()
    assert header.split()[-1] == "p*J(p)"
    assert row.split()[-1] == "19.64263"
    assert float(row.split()[-1]) == pytest.approx(on_grid, abs=1e-5)  # truncated to 5 places
    code, out, _ = run(capsys, "--format", "json", "table", "-p", str(p))
    assert json.loads(out)["rows"][0]["upper_bound"] == pytest.approx(on_grid, rel=1e-6)


def test_table_rejects_a_prime_without_a_known_best_size(capsys):
    code, out, err = run(capsys, "table", "-p", "41,43")
    assert code == 2 and not out
    assert err == "error: no known best digit-set size for p=43\n"


@pytest.mark.parametrize("primes", [",", "", " , "])
def test_table_without_a_prime_is_an_input_error(capsys, primes):
    code, out, err = run(capsys, "table", "-p", primes)
    assert code == 2 and not out
    assert err == "error: need at least one prime\n"


def test_the_exit_status_a_shell_sees(tmp_path):
    # `sys.exit(main())` as `python -m affinecaps.cli` runs it, in a process of its own
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def status(*argv):
        return subprocess.run([sys.executable, "-m", "affinecaps.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120).returncode

    assert status("--out", "out", "search", "-p", "7") == 0
    report = json.loads((tmp_path / "out" / "search_p7.json").read_text())
    assert status("cert-verify", "out/search_p7.json") == 0
    for name, flag, code in (("tampered", True, 1), ("malformed", "yes", 2)):
        (tmp_path / f"{name}.json").write_text(json.dumps({**report, "budget_exhausted": flag}))
        assert status("cert-verify", f"{name}.json") == code, name
    assert status("--out", "out", "search", "-p", "7", "--lmin", "3") == 2


def test_search_p7_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    assert code == 0
    assert "max admissible size 3" in out
    report = json.loads((tmp_path / "search_p7.json").read_text())
    assert report["max_size"] == 3 and report["maximality"] == "proven"
    assert (tmp_path / "search_p7.checkpoint.jsonl").exists()


def test_search_report_and_certificates_follow_the_umask(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        code, _, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    finally:
        os.umask(umask)
    assert code == 0
    certs = list((tmp_path / "certs").iterdir())
    modes = {stat.S_IMODE(f.stat().st_mode) for f in [tmp_path / "search_p7.json", *certs]}
    assert certs and modes == {0o666 & ~0o027}


def test_a_search_report_write_that_fails_partway_keeps_the_previous_report(
        tmp_path, capsys, monkeypatch):
    code, _, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    report = tmp_path / "search_p7.json"
    before = report.read_bytes()
    write = os.write

    def torn_write(fd, data):  # tears the report, not the certificates stored before it
        if b'"maximality"' not in bytes(data):
            return write(fd, data)
        write(fd, bytes(data[:len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", torn_write)
    code, _, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7", "--lmax", "3")
    monkeypatch.undo()
    assert code == 2 and "No space left on device" in err
    assert report.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("options", [
    ("--lmax", "1"), ("--lmax", "0"),
])
def test_search_rejects_bad_sizes(tmp_path, capsys, options):
    code, _, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7", *options)
    assert code == 2 and err.startswith("error: ")
    assert not (tmp_path / "search_p7.json").exists()


@pytest.mark.parametrize("option", [("--workers", "2"), ("--lmin", "3")], ids=["workers", "lmin"])
def test_search_takes_no_workers_or_lmin_option(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exit_:
        main(["--out", str(tmp_path), "search", "-p", "7", *option])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "search_p7.json").exists()


def test_search_lowers_a_large_lmax(tmp_path, capsys):
    code, out, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7", "--lmax", "100")
    assert code == 0 and "max admissible size 3 (proven)" in out


def test_search_budget_exit_code(tmp_path, capsys):
    code, out, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "11",
                       "--budget-candidates", "3")
    assert code == 3
    report = json.loads((tmp_path / "search_p11.json").read_text())
    assert report["budget_exhausted"] is True


@pytest.mark.parametrize("options", [
    ("--budget-seconds", "-1"), ("--budget-candidates", "-1"),
])
def test_search_rejects_negative_budgets_and_keeps_the_report(tmp_path, capsys, options):
    report = tmp_path / "search_p7.json"
    assert run(capsys, "--out", str(tmp_path), "search", "-p", "7")[0] == 0
    kept = report.read_bytes()
    code, _, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7", *options)
    assert code == 2 and err.startswith("error: ")
    assert report.read_bytes() == kept


def test_search_zero_budget_still_exits_with_the_budget_code(tmp_path, capsys):
    code, _, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7", "--budget-candidates", "0")
    assert code == 3
    assert json.loads((tmp_path / "search_p7.json").read_text())["budget_exhausted"] is True


def test_search_claims_no_proof_without_a_witness(tmp_path, capsys):
    # level 2 is always admissible, so only a spent budget leaves no witness
    code, out, _ = run(capsys, "--out", str(tmp_path), "search", "-p", "7",
                       "--budget-candidates", "0")
    assert code == 3
    assert "max admissible size None (budget exhausted, partial)" in out and "proven" not in out
    report = json.loads((tmp_path / "search_p7.json").read_text())
    assert report["maximality"] == "not-attempted" and report["max_size"] is None


def test_search_resume_matches_fresh(tmp_path, capsys):
    out_a = tmp_path / "a"
    run(capsys, "--out", str(out_a), "search", "-p", "7", "--budget-candidates", "5")
    code, _, _ = run(capsys, "--out", str(out_a), "search", "-p", "7")
    assert code == 0
    out_b = tmp_path / "b"
    run(capsys, "--out", str(out_b), "search", "-p", "7")
    assert (out_a / "search_p7.json").read_bytes() == (out_b / "search_p7.json").read_bytes()


def test_classify_cli(tmp_path, capsys):
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("0,1,2\n0 1 3\n0,1,4\n")
    code, out, _ = run(capsys, "classify", "-p", "5", "--sets-file", str(sets_file))
    assert code == 0
    assert "1 affine classes" in out


def test_classify_rejects_digits_outside_the_residues(tmp_path, capsys):
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("0,1,2\n0,1,11\n")
    code, out, err = run(capsys, "classify", "-p", "11", "--sets-file", str(sets_file))
    assert code == 2 and "error" in err and not out


def test_search_resumes_after_a_torn_checkpoint_line(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "--out", str(out_a), "search", "-p", "7")
    ckpt = out_a / "search_p7.checkpoint.jsonl"
    lines = ckpt.read_bytes().splitlines(keepends=True)
    ckpt.write_bytes(ckpt.read_bytes()[:-20])  # a kill in the middle of the last write
    code, _, err = run(capsys, "--out", str(out_a), "search", "-p", "7")
    assert code == 0, err
    assert ckpt.read_bytes().splitlines(keepends=True) == lines
    run(capsys, "--out", str(out_b), "search", "-p", "7")
    assert (out_a / "search_p7.json").read_bytes() == (out_b / "search_p7.json").read_bytes()


def test_search_rejects_a_corrupt_checkpoint_line_before_the_last(tmp_path, capsys):
    run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    ckpt = tmp_path / "search_p7.checkpoint.jsonl"
    lines = ckpt.read_text().splitlines(keepends=True)
    ckpt.write_text("".join(lines[:1] + ["{torn\n"] + lines[1:]))
    code, _, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    assert code == 2 and err.startswith("error: ")


REFUTED = '{"p": 7, "size": 4, "digits": [0, 1, 2, 3], '


@pytest.mark.parametrize("record", [
    "[1]", '"str"', '{"p": 7, "size": [2], "digits": [0, 1], "admissible": true}',
    '{"p": 7, "size": 2, "digits": 5, "admissible": true}', DEEP,
    '{"p": 7, "size": 2, "digits": [0, 1]}',
    REFUTED + '"admissible": "no", "refuted_b": 2, "witness": ["1", "1", "1"]}',
    REFUTED + '"admissible": 0}',
    REFUTED + '"admissible": false}',
    REFUTED + '"admissible": false, "refuted_b": "2", "witness": ["1", "1", "1"]}',
    REFUTED + '"admissible": false, "refuted_b": 2, "witness": "111"}',
    REFUTED + '"admissible": false, "refuted_b": 2, "witness": [1, 1, 1]}',
    REFUTED + '"admissible": false, "refuted_b": 2, "witness": ["x", "1", "1"]}',
    '{"p": "7", "size": 2, "digits": [0, 1], "admissible": true}',
    '{"p": 7.0, "size": 2, "digits": [0, 1], "admissible": true}',
    '{"p": true, "size": 2, "digits": [0, 1], "admissible": true}',
], ids=["list", "string", "list-size", "number-digits", "deeply-nested",
        "no-verdict", "string-verdict", "number-verdict", "no-refuted-b", "string-refuted-b",
        "string-witness", "number-witness-entries", "non-integer-witness-entry",
        "string-p", "float-p", "bool-p"])
def test_search_refuses_a_malformed_checkpoint_record(tmp_path, capsys, record):
    run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    ckpt = tmp_path / "search_p7.checkpoint.jsonl"
    ckpt.write_text(record + "\n" + ckpt.read_text())
    code, out, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith(f"error: checkpoint {ckpt} line 1 ")


@pytest.mark.parametrize("tamper", [
    lambda rec: rec["witness"].__setitem__(0, "-5"),
    lambda rec: rec.update(witness=["0"] * len(rec["witness"])),
    lambda rec: rec["witness"].pop(),
    lambda rec: rec.update(refuted_b=rec["refuted_b"] + 1),
    lambda rec: rec.update(digits=[7] + rec["digits"][1:]),
    lambda rec: (rec.pop("refuted_b"), rec.pop("witness"), rec.update(admissible=True)),
], ids=["negative-entry", "zero-witness", "short-witness", "other-b", "digit-out-of-range",
        "flipped-to-admissible"])
def test_search_refuses_a_stored_refutation_that_does_not_verify(tmp_path, capsys, tamper):
    run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    ckpt = tmp_path / "search_p7.checkpoint.jsonl"
    report = (tmp_path / "search_p7.json").read_bytes()
    lines = ckpt.read_text().splitlines()
    number = max(i for i, line in enumerate(lines, 1) if not json.loads(line)["admissible"])
    rec = json.loads(lines[number - 1])
    tamper(rec)
    lines[number - 1] = json.dumps(rec, sort_keys=True)
    ckpt.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith(f"error: checkpoint {ckpt} line {number} ")
    assert (tmp_path / "search_p7.json").read_bytes() == report


def test_search_names_the_line_of_a_checkpoint_record_that_is_not_utf8(tmp_path, capsys):
    run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    ckpt = tmp_path / "search_p7.checkpoint.jsonl"
    lines = ckpt.read_bytes().splitlines(keepends=True)
    ckpt.write_bytes(b"".join(lines[:2] + [b'{"p": 7, "size": "\xff"}\n'] + lines[2:]))
    code, out, err = run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith(f"error: checkpoint {ckpt} line 3 ")


def test_search_refuses_a_checkpoint_of_another_modulus(tmp_path, capsys):
    run(capsys, "--out", str(tmp_path), "search", "-p", "7")
    ckpt = tmp_path / "search_p11.checkpoint.jsonl"
    ckpt.write_bytes((tmp_path / "search_p7.checkpoint.jsonl").read_bytes())
    code, out, err = run(capsys, "--out", str(tmp_path), "search", "-p", "11")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
    assert ckpt.read_bytes() == (tmp_path / "search_p7.checkpoint.jsonl").read_bytes()
    assert not (tmp_path / "search_p11.json").exists()


def test_classify_json(tmp_path, capsys):
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("0,1,2,3,4\n0,1,2,3,6\n")
    code, out, _ = run(capsys, "--format", "json", "classify", "-p", "11",
                       "--sets-file", str(sets_file))
    assert code == 0
    blob = json.loads(out)
    assert len(blob["classes"]) == 2


def test_outdir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFFINECAPS_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "check", "-p", "11", "-D", "0,1,3,4,5", "--Dprime", "0,1,3")
    assert code == 0
    assert (tmp_path / "envout" / "certs").exists()
