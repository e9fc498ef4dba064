from __future__ import annotations

import hashlib
import json

import pytest

from stskit import (
    GenerationError,
    TripleSystem,
    bose_conjugate,
    bose_half_sum,
    format_sts,
    random_sts,
    sts33_fixture,
    wilson_schreiber,
)
from stskit.core import colouring_lines
from stskit.generator import batch_seed
from stskit.cli import main


def run(capsys, *argv: str):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_numtheory_profile(capsys):
    code, out, _ = run(capsys, "numtheory", "profile", "--n", "49")
    assert code == 0
    assert "f=2" in out and "psi_star=12" in out
    code, out, _ = run(capsys, "numtheory", "profile", "--n", "49", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "stskit-report/1", "command": "numtheory profile", "n": 49, "phi": 42,
        "sub_order": 42, "g": 1, "f": 2, "psi": 24, "psi_star": 12, "divisors_gt1": [7, 49]}


def test_numtheory_profile_refuses_n_above_cap(capsys):
    code, out, err = run(capsys, "numtheory", "profile", "--n", str(10**12 + 1))
    assert (code, out) == (2, "") and f"n must be <= {10**12}" in err


def test_numtheory_scan_json_reports_the_exception_set(capsys):
    code, out, _ = run(capsys, "numtheory", "scan", "--limit", "600", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "stskit-report/1"
    assert payload["exceptions"] == [7, 11, 19, 31, 43, 73, 127, 511]


def test_numtheory_scan_negative_psi(capsys):
    code, out, _ = run(capsys, "numtheory", "scan", "--limit", "200", "--negative-psi")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["n", "phi", "f", "psi", "psi_star"]
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["7", "11", "31", "43", "127"]


def test_factorise_verifies(capsys):
    code, out, _ = run(capsys, "factorise", "--n", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True and payload["factor_sizes"] == [6, 6, 6]


def test_construct_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "s15.sts"
    code, _, _ = run(capsys, "construct", "wilson-schreiber", "--n", "13",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and "ok" in out


def test_written_files_match_the_formatters(tmp_path, capsys):
    # The CLI writes line by line; the bytes are those of format_sts and
    # of the joined colouring lines.
    for n in (13, 97):
        path = tmp_path / f"ws{n}.sts"
        assert run(capsys, "construct", "wilson-schreiber", "--n", str(n),
                   "--out", str(path))[0] == 0
        assert path.read_bytes() == format_sts(wilson_schreiber(n).system).encode()
    spath, cpath = tmp_path / "s33.sts", tmp_path / "s33.cols"
    assert run(capsys, "fixture", "sts33", "--out", str(spath),
               "--colouring-out", str(cpath))[0] == 0
    labelled, colouring = sts33_fixture()
    assert spath.read_bytes() == format_sts(labelled.system).encode()
    assert cpath.read_bytes() == "".join(colouring_lines(colouring)).encode()
    gen = tmp_path / "gen"
    assert run(capsys, "generate", "--v", "13", "--count", "2", "--seed", "3",
               "--out-dir", str(gen))[0] == 0
    for idx in range(2):
        assert (gen / f"sts-v13-{idx}.sts").read_bytes() == format_sts(
            random_sts(13, batch_seed(3, idx))).encode()


def test_construct_json_reports_families(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "wilson-schreiber", "--n", "13", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "stskit-report/1", "command": "construct wilson-schreiber", "v": 15,
        "triples": 35, "verified": True, "out": None,
        "families": {"zero-sum": 16, "infinity": 19}}


def test_construct_bose_conjugate_file_is_pinned(tmp_path, capsys):
    path = tmp_path / "b33.sts"
    assert run(capsys, "construct", "bose", "--n", "11", "--square", "conjugate",
               "--seed", "1", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "53a12f1cfa17d29549c5d9ff832760112d3a2f1f96070424bd805641d9c4b536")


def test_construct_bose_conjugate_seed(tmp_path, capsys):
    # The seed picks the three conjugating permutations, as bose_conjugate
    # draws them.
    for seed in (0, 3):
        path = tmp_path / f"b{seed}.sts"
        code, out, _ = run(capsys, "construct", "bose", "--n", "5", "--square", "conjugate",
                           "--seed", str(seed), "--out", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["families"] == {"spine": 5, "layer0": 10, "layer1": 10, "layer2": 10}
        assert path.read_text() == format_sts(bose_conjugate(5, seed).system)
    assert (tmp_path / "b0.sts").read_text() != (tmp_path / "b3.sts").read_text()


@pytest.mark.parametrize("square", ["half-sum", "conjugate"])
def test_construct_bose_refuses_n_above_cap(capsys, monkeypatch, square):
    # Both squares start from half_sum_square(n), which refuses n above 333
    # before a square is built.
    from stskit import constructions

    monkeypatch.setattr(constructions, "LatinSquare", None)
    code, out, err = run(capsys, "construct", "bose", "--n", "99995", "--square", square)
    assert (code, out) == (2, "") and "n must be <= 333, got 99995" in err


def test_verify_reports_failure(tmp_path, capsys):
    path = tmp_path / "bad.sts"
    path.write_text("STS v=7\n0 1 3\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "not covered" in out or "triple count" in out


def test_fixture_and_colouring_files(tmp_path, capsys):
    spath, cpath = tmp_path / "s33.sts", tmp_path / "s33.cols"
    code, _, _ = run(capsys, "fixture", "sts33", "--out", str(spath),
                     "--colouring-out", str(cpath))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", str(spath), "--colouring", str(cpath))
    assert code == 0 and "18 classes: ok" in out
    code, out, _ = run(capsys, "verify", "--in", str(spath), "--colouring", str(cpath),
                       "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "stskit-report/1", "command": "verify", "v": 33, "triples": 176,
        "ok": True, "first_violation": None, "violations": 0, "colouring_ok": True,
        "classes": 18}
    code, out, _ = run(capsys, "fixture", "sts33", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "stskit-report/1", "command": "fixture sts33", "v": 33, "triples": 176,
        "classes": 18, "verified": True, "out": None, "colouring_out": None}


def test_analyze_chi_exact_fano(tmp_path, capsys, fano, monkeypatch):
    # The budget comes from the flags alone; the environment does not cap it.
    monkeypatch.setenv("STSKIT_BUDGET_NODES", "1")
    path = tmp_path / "fano.sts"
    path.write_text(format_sts(fano))
    code, out, _ = run(capsys, "analyze", "chi", "--in", str(path), "--exact", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 7


def test_analyze_chi_fixture_with_witness(tmp_path, capsys):
    # The search derives the fixture's mod-3 certificate itself; --mod3-lower
    # changes nothing on a file a weighting fits.
    spath, cpath = tmp_path / "s33.sts", tmp_path / "s33.cols"
    run(capsys, "fixture", "sts33", "--out", str(spath), "--colouring-out", str(cpath))
    chi = ("analyze", "chi", "--in", str(spath), "--exact", "--witness-colouring", str(cpath))
    for flag in ((), ("--mod3-lower",)):
        code, out, _ = run(capsys, *chi, *flag, "--json")
        assert code == 0
        assert json.loads(out) == {
            "schema": "stskit-report/1", "command": "analyze chi", "mode": "exact",
            "v": 33, "lower": 18, "upper": 18, "status": "complete", "nodes": 0,
            "value": 18, "certificate": {"method": "mod3-weighting", "bound": 5}}
        assert run(capsys, *chi, *flag)[:2] == (0, "chromatic index 18\n")


def test_analyze_chi_exact_reports_the_certificate_it_used(tmp_path, capsys):
    path = tmp_path / "system.sts"
    for system, cert in ((wilson_schreiber(13).system,
                          {"method": "ws-weight-argument", "bound": 1}),
                         (random_sts(15, seed=1), {"method": "exhaustive-packing", "bound": 2}),
                         (random_sts(13, seed=1), None)):
        path.write_text(format_sts(system))
        code, out, _ = run(capsys, "analyze", "chi", "--in", str(path), "--exact", "--json")
        r = json.loads(out)
        assert (code, r["certificate"]) == (0, cert), cert
        # No mod-3 weighting fits these files, so --mod3-lower refuses them.
        code, out, err = run(capsys, "analyze", "chi", "--in", str(path), "--exact",
                             "--mod3-lower")
        assert (code, out) == (2, "") and "no admissible mod-3 weighting found" in err


def test_analyze_chi_mod3_lower_on_bose(tmp_path, capsys):
    # The layered Bose file fits the thirds weighting, not the point mod 3;
    # --mod3-lower must pick it as 'analyze bound --method mod3' does.
    path = tmp_path / "b33.sts"
    run(capsys, "construct", "bose", "--n", "11", "--out", str(path))
    code, out, _ = run(capsys, "analyze", "chi", "--in", str(path), "--exact",
                       "--mod3-lower", "--budget-nodes", "50000", "--json")
    assert code in (0, 3)
    r = json.loads(out)
    assert r["lower"] >= 18
    assert r["certificate"] == {"method": "mod3-weighting", "bound": 5}


def test_analyze_chi_inconclusive_exit_code(tmp_path, capsys):
    spath = tmp_path / "s33.sts"
    run(capsys, "fixture", "sts33", "--out", str(spath))
    code, out, _ = run(capsys, "analyze", "chi", "--in", str(spath), "--exact",
                       "--budget-nodes", "10", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "inconclusive" and payload["value"] is None


def test_analyze_pcs_max_disjoint(tmp_path, capsys):
    path = tmp_path / "s15.sts"
    run(capsys, "construct", "wilson-schreiber", "--n", "13", "--out", str(path))
    code, out, _ = run(capsys, "analyze", "pcs", "--in", str(path),
                       "--max-disjoint", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_disjoint"] == 1 and payload["status"] == "complete"


def test_analyze_pcs_enumeration(tmp_path, capsys):
    path = tmp_path / "b15.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(path))
    code, out, _ = run(capsys, "analyze", "pcs", "--in", str(path))
    assert (code, out) == (0, "11 parallel classes (complete)\n")
    code, out, _ = run(capsys, "analyze", "pcs", "--in", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["parallel_classes"], payload["status"]) == (11, "complete")
    assert len(payload["classes"]) == 11
    assert payload["classes"][0] == [0, 15, 20, 22, 25]


def test_analyze_chi_heuristic_reaches_target(tmp_path, capsys):
    path = tmp_path / "b15.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(path))
    chi = ("analyze", "chi", "--in", str(path), "--heuristic", "--target", "9")
    code, out, _ = run(capsys, *chi)
    assert (code, out) == (0, "heuristic target 9: success with 9 classes\n")
    code, out, _ = run(capsys, *chi, "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "stskit-report/1", "command": "analyze chi", "mode": "heuristic",
        "v": 15, "target": 9, "success": True, "classes": 9}


def test_analyze_chi_refusals_on_bose15(tmp_path, capsys):
    # One triple short of Bose(5): a weighting still fits, but a certificate
    # counts on all 35 triples, so none lifts the counting bound ceil(34/5).
    path, short = tmp_path / "b15.sts", tmp_path / "b15-short.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(path))
    short.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    code, out, _ = run(capsys, "analyze", "chi", "--in", str(short), "--exact",
                       "--mod3-lower", "--budget-nodes", "10", "--json")
    r = json.loads(out)
    assert (code, r["lower"], r["certificate"]) == (3, 7, None)
    # No colouring needs more than b = 35 classes.
    code, out, err = run(capsys, "analyze", "chi", "--in", str(path), "--heuristic",
                         "--target", "36")
    assert (code, out) == (2, "") and "above the triple count 35" in err


def test_analyze_chi_checks_its_options_before_reading_the_file(tmp_path, capsys):
    # A misused option is reported before the file is read, so an
    # unreadable path does not hide it.
    chi = ("analyze", "chi", "--in", str(tmp_path / "missing.sts"))
    for extra, message in ((("--exact", "--target", "5"), "--target applies to --heuristic"),
                           (("--heuristic", "--target", "5", "--budget-nodes", "1"),
                            "--budget-nodes applies to --exact"),
                           (("--heuristic",), "--heuristic requires --target")):
        code, out, err = run(capsys, *chi, *extra)
        assert (code, out) == (2, "") and message in err and "cannot read" not in err, extra
    code, out, err = run(capsys, *chi, "--exact")
    assert (code, out) == (2, "") and "cannot read" in err


def test_analyze_chi_heuristic_refuses_repeated_point(tmp_path, capsys):
    path = tmp_path / "repeat.sts"
    path.write_text("STS v=7\n0 0 1\n2 3 4\n2 5 6\n3 5 6\n")
    code, out, err = run(capsys, "analyze", "chi", "--in", str(path), "--heuristic",
                         "--target", "4")
    assert (code, out) == (2, "") and "triple (0, 0, 1) repeats a point" in err


def test_every_reader_refuses_a_repeated_point(tmp_path, capsys):
    # Bose(5) with its last triple replaced by (0, 0, 1).  Counting that
    # triple, the mod-3 certificate would read "at most 3" where the system
    # has t0 = 5 and bound 2; the file is malformed for every command.
    bose, path, cols = tmp_path / "b15.sts", tmp_path / "b15-repeat.sts", tmp_path / "b15.cols"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(bose))
    path.write_text("".join(bose.read_text().splitlines(keepends=True)[:-1]) + "0 0 1\n")
    cols.write_text("COLOURING v=15 k=35\n" + "".join(f"{i}\n" for i in range(35)))
    for argv in (("verify",), ("verify", "--colouring", str(cols)),
                 ("analyze", "bound", "--method", "mod3"), ("analyze", "bound", "--method", "ws"),
                 ("analyze", "pcs"), ("analyze", "pcs", "--max-disjoint"),
                 ("analyze", "chi", "--exact"), ("analyze", "chi", "--heuristic", "--target", "7")):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, *argv, "--in", str(path), *json_flag)
            assert (code, out) == (2, ""), argv + json_flag
            assert "error: triple (0, 0, 1) repeats a point" in err, argv + json_flag


def test_analyze_bound_ws_and_mod3(tmp_path, capsys):
    ws = tmp_path / "s15.sts"
    run(capsys, "construct", "wilson-schreiber", "--n", "13", "--out", str(ws))
    code, out, _ = run(capsys, "analyze", "bound", "--in", str(ws), "--method", "ws",
                       "--json")
    assert code == 0 and json.loads(out)["bound"] == 1

    bose = tmp_path / "b15.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(bose))
    code, out, _ = run(capsys, "analyze", "bound", "--in", str(bose), "--method", "mod3",
                       "--json")
    assert code == 0 and json.loads(out)["bound"] == 2


def test_analyze_bound_without_method_takes_the_least_bound(tmp_path, capsys):
    path = tmp_path / "system.sts"
    # random_sts(15, 8) holds 3 = (v+3)/6 disjoint classes, fewer than 7.
    for system, method, bound in ((wilson_schreiber(13).system, "ws-weight-argument", 1),
                                  (bose_half_sum(5).system, "mod3-weighting", 2),
                                  (random_sts(15, seed=1), "exhaustive-packing", 2),
                                  (random_sts(15, seed=8), "exhaustive-packing", 3)):
        path.write_text(format_sts(system))
        bound_cmd = ("analyze", "bound", "--in", str(path))
        code, out, _ = run(capsys, *bound_cmd, "--json")
        r = json.loads(out)
        assert (code, r["method"], r["bound"]) == (0, method, bound), method
        code, text, _ = run(capsys, *bound_cmd)
        assert (code, text) == (0, f"at most {bound} disjoint parallel classes ({method})\n")
    # The packing search of random_sts(27, 1) runs to PACKING_CAP: every
    # rule refuses.
    path.write_text(format_sts(random_sts(27, seed=1)))
    code, out, err = run(capsys, "analyze", "bound", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: no disjoint parallel-class bound applies [mod3: ")
    assert ("] [ws: input system is not the canonical construction of order 27; the ws "
            "bound does not apply] [exhaustive-packing: the packing search stopped after "
            "100000 nodes]\n") in err


def test_analyze_bound_ws_rejects_noncanonical(tmp_path, capsys):
    path = tmp_path / "b15.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(path))
    code, _, err = run(capsys, "analyze", "bound", "--in", str(path), "--method", "ws")
    assert code == 2 and "canonical" in err


def test_analyze_bound_ws_rejects_ws13_with_two_points_swapped(tmp_path, capsys):
    # Still a Steiner system, but not the canonical construction.
    system = wilson_schreiber(13).system
    swap = {0: 1, 1: 0}
    swapped = TripleSystem.from_triples(15, ([swap.get(p, p) for p in t]
                                             for t in system.triples))
    path = tmp_path / "swapped.sts"
    path.write_text(format_sts(swapped))
    assert run(capsys, "verify", "--in", str(path))[0] == 0
    code, out, err = run(capsys, "analyze", "bound", "--in", str(path), "--method", "ws")
    assert (code, out) == (2, "")
    assert err == ("error: input system is not the canonical construction of order 15; "
                   "the ws bound does not apply\n")


@pytest.mark.parametrize("header", ["STS v=1503", "STS v=100000005"])
def test_analyze_bound_ws_refuses_wrong_count_before_building(tmp_path, capsys, monkeypatch,
                                                              header):
    # The triple count settles it: G(n) is never factorised, nor the
    # canonical system built, whatever order the header claims.
    def never(*_args):
        raise AssertionError("built the canonical system for a file it refuses")

    for target in ("stskit.factorisation.factorise_G", "stskit.analysis.factorise_G",
                   "stskit.constructions.wilson_schreiber",
                   "stskit.constructions.wilson_schreiber_triples"):
        monkeypatch.setattr(target, never)
    path = tmp_path / "short.sts"
    path.write_text(f"{header}\n0 1 2\n")
    code, out, err = run(capsys, "analyze", "bound", "--in", str(path), "--method", "ws")
    v = header.split("=")[1]
    assert (code, out) == (2, "")
    assert err == (f"error: input system is not the canonical construction of order {v}; "
                   "the ws bound does not apply\n")


@pytest.mark.parametrize("kind", [(), ("--all",), ("--negative-psi",)])
def test_numtheory_scan_text_and_json_agree(capsys, kind):
    code, text, _ = run(capsys, "numtheory", "scan", "--limit", "600", *kind)
    assert code == 0
    code, out, _ = run(capsys, "numtheory", "scan", "--limit", "600", *kind, "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert text.splitlines() == ["n\tphi\tf\tpsi\tpsi_star",
                                 *("\t".join(map(str, r)) for r in rows)]


def test_numtheory_scan_bad_limit_prints_nothing(capsys):
    # The limit is checked before the text header goes out.
    code, out, err = run(capsys, "numtheory", "scan", "--limit", "2")
    assert (code, out) == (2, "") and "limit must be >= 3" in err


def test_theorem1_exit_codes(capsys):
    code, out, _ = run(capsys, "theorem1", "--v", "15", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["chi_lower"] == 9
    assert run(capsys, "theorem1", "--v", "45")[0] == 3
    assert run(capsys, "theorem1", "--v", "9")[0] == 1


def test_generate_and_survey(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--v", "13", "--count", "2", "--seed", "4",
                       "--out-dir", str(tmp_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["files"]) == 2
    for path in payload["files"]:
        assert run(capsys, "verify", "--in", path)[0] == 0

    code, out, _ = run(capsys, "survey", "colouring", "--v", "9", "--count", "2",
                       "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["counts"]["m"] == 2
    code, out, _ = run(capsys, "survey", "colouring", "--v", "9", "--count", "2",
                       "--seed", "1")
    assert code == 0
    assert out.splitlines() == ["order 9 (m=4), 2 systems:", "  m: 2", "  m+1: 0",
                                "  m+2: 0", "  fail: 0"]


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["numtheory", "scan"])  # missing --limit
    assert exc.value.code == 2
    code, _, err = run(capsys, "construct", "wilson-schreiber", "--n", "12")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.sts"))
    assert code == 2 and "cannot read" in err
    with pytest.raises(SystemExit) as exc:
        main(["numtheory", "scan", "--limit", "600", "--all", "--negative-psi"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["numtheory", "--json", "profile", "--n", "49"])  # --json is a leaf flag
    assert exc.value.code == 2
    # Mode-specific flags of 'analyze chi' are refused in the other mode.
    path = tmp_path / "s9.sts"
    path.write_text(format_sts(random_sts(9, seed=1)))
    chi = ("analyze", "chi", "--in", str(path))
    for extra in (("--heuristic", "--target", "5", "--witness-colouring", str(path)),
                  ("--heuristic", "--target", "5", "--mod3-lower"),
                  ("--exact", "--target", "5"),
                  ("--heuristic", "--target", "5", "--budget-nodes", "1"),
                  ("--heuristic", "--target", "5", "--budget-seconds", "0"),
                  ("--exact", "--seed", "5"),
                  ("--exact", "--restarts", "1")):
        code, _, err = run(capsys, *chi, *extra)
        assert code == 2 and "only" in err, extra
    # A seed means nothing to the half-sum square, the default.
    for square in ((), ("--square", "half-sum")):
        code, _, err = run(capsys, "construct", "bose", "--n", "5", *square, "--seed", "2")
        assert code == 2 and "only" in err, square
    # Values that would otherwise read as answers: an empty report, a
    # heuristic failure, a scan, a factorisation, a random system or a WS(n)
    # that allocates without bound, a time cap that never fires, a "parallel
    # class" holding a triple (0, 0, 1), a heuristic with no target, or a
    # bound whose method does not fit the order (13 - 2 = 11 is not 1 mod 6,
    # 13 is not 0 mod 3).
    repeat = tmp_path / "repeat.sts"
    repeat.write_text("STS v=9\n0 0 1\n2 3 4\n5 6 7\n8 8 8\n")
    s13 = tmp_path / "s13.sts"
    s13.write_text(format_sts(random_sts(13, seed=1)))
    for argv in ((*chi, "--heuristic", "--target", "7", "--restarts", "0"),
                 ("generate", "--v", "9", "--count", "-1"),
                 ("survey", "colouring", "--v", "9", "--count", "-1"),
                 ("survey", "colouring", "--v", "9", "--count", "0", "--restarts", "0"),
                 ("numtheory", "scan", "--limit", "10000001"),
                 ("analyze", "pcs", "--in", str(path), "--budget-seconds", "nan"),
                 ("analyze", "pcs", "--in", str(repeat)),
                 ("theorem1", "--v", "9999999"),
                 ("factorise", "--n", "9999997"),
                 ("generate", "--v", "1003", "--count", "1"),
                 ("survey", "colouring", "--v", "1003", "--count", "1"),
                 # An order is refused even when no system is asked for.
                 ("generate", "--v", "8", "--count", "0"),
                 ("generate", "--v", "1003", "--count", "0"),
                 ("survey", "colouring", "--v", "1003", "--count", "0"),
                 ("construct", "wilson-schreiber", "--n", "1003"),
                 (*chi, "--heuristic"),
                 ("analyze", "bound", "--in", str(s13), "--method", "ws"),
                 ("analyze", "bound", "--in", str(s13), "--method", "mod3")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error" in err, argv


@pytest.mark.parametrize("text, error", [
    ("STS v=7\n0 1 2\n\n0 1\n", "line 3: expected 3 point indices, got '0 1'"),
    ("STS v=7\n0 1 2\n0 1 a\n0 1\n", "line 3: non-integer point in '0 1 a'"),
    ("STS v=x\n", "bad STS header 'STS v=x'"),
    ("BAD\n", "not an STS file: expected first line 'STS v=<v>'"),
])
def test_a_bad_file_names_its_first_bad_line(tmp_path, capsys, text, error):
    path = tmp_path / "bad.sts"
    path.write_text(text)
    for argv in (("verify",), ("analyze", "pcs"), ("analyze", "bound", "--method", "ws")):
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert (code, out, err) == (2, "", f"error: {error}\n"), argv


@pytest.mark.parametrize("bad, message", [
    ("0 0 1", "class indices must be sorted and duplicate-free"),
    ("-1 2", "negative triple index"),
    ("5 999", "class references triple index 999 but the host has only 176 triples"),
])
def test_verify_colouring_names_the_line_of_a_bad_index(tmp_path, capsys, bad, message):
    spath, cpath = tmp_path / "s33.sts", tmp_path / "bad.cols"
    run(capsys, "fixture", "sts33", "--out", str(spath))
    cpath.write_text(f"COLOURING v=33 k=2\n3 4\n{bad}\n")
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "verify", "--in", str(spath), "--colouring", str(cpath),
                             *json_flag)
        assert (code, out, err) == (2, "", f"error: line 3: {message} in {bad!r}\n")


def test_an_unreadable_path_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.sts", tmp_path):
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: "), path


def test_analyze_refuses_a_header_beyond_the_triples(tmp_path, capsys):
    # Two triples cover at most 6 points; nothing is sized by the header's v.
    path = tmp_path / "huge.sts"
    path.write_text("STS v=3000003\n0 1 2\n0 1 3\n")
    for argv in (("analyze", "pcs"), ("analyze", "chi", "--exact"),
                 ("analyze", "bound", "--method", "mod3")):
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_analyze_bound_mod3_names_each_weighting_refusal(tmp_path, capsys):
    # The point-mod-3 weighting is admissible on the two triples and refused
    # for v > 3b; the message names that, not only the last rule's reason.
    path = tmp_path / "huge.sts"
    path.write_text("STS v=999999993\n0 1 2\n0 1 3\n")
    code, out, err = run(capsys, "analyze", "bound", "--in", str(path), "--method", "mod3")
    assert (code, out) == (2, "")
    assert err == ("error: no admissible mod-3 weighting found [point mod 3: order 999999993 "
                   "exceeds 3 x 2 triples: some point lies on no triple] [point's third of "
                   "the range: every triple has zero weight-sum; the weighting yields no "
                   "bound]\n")


@pytest.mark.parametrize("argv", [
    ("construct", "wilson-schreiber", "--n", "13", "--out", "{missing}/x.sts"),
    ("fixture", "sts33", "--colouring-out", "{missing}/c"),
    ("generate", "--v", "9", "--out-dir", "{file}"),
], ids=["construct", "fixture", "generate"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=afile) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists() and afile.read_text() == ""


def test_generate_count_0_creates_nothing(tmp_path, capsys):
    out_dir = tmp_path / "new"
    code, out, _ = run(capsys, "generate", "--v", "9", "--count", "0", "--out-dir", str(out_dir))
    assert (code, out) == (0, "generated 0 system(s) of order 9\n")
    assert not out_dir.exists()


# Text output checked against the --json fields of the same call.


def test_factorise_text_and_json_agree(tmp_path, capsys):
    code, out, _ = run(capsys, "factorise", "--n", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    head = (f"G(13): {payload['edges']} edges in 3 factors of "
            f"{payload['factor_sizes'][0]}, verify ok")
    code, text, _ = run(capsys, "factorise", "--n", "13")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == head
    assert lines[1::7] == ["FACTOR 0", "FACTOR 1", "FACTOR 2"]
    assert len(lines) == 1 + 3 + sum(payload["factor_sizes"])
    path = tmp_path / "g13.txt"
    code, text, _ = run(capsys, "factorise", "--n", "13", "--out", str(path))
    assert (code, text) == (0, f"{head}\nwrote {path}\n")
    assert path.read_text() == "\n".join(lines[1:]) + "\n"


def test_analyze_pcs_max_disjoint_text_and_json_agree(tmp_path, capsys, sts9_grid):
    # Bose(5)'s packing reaches its mod-3 bound 2, and the 9-point grid's its
    # least point degree 4, before the enumeration ends, so only the classes
    # found so far are counted.
    path = tmp_path / "b15.sts"
    run(capsys, "construct", "bose", "--n", "5", "--out", str(path))
    grid = tmp_path / "sts9.sts"
    grid.write_text(format_sts(sts9_grid))
    seen = []
    for file in (path, grid):
        pcs = ("analyze", "pcs", "--in", str(file), "--max-disjoint")
        code, out, _ = run(capsys, *pcs, "--json")
        assert code == 0
        r = json.loads(out)
        at_least = "" if r["enumeration_complete"] else "at least "
        code, text, _ = run(capsys, *pcs)
        assert (code, text) == (0, f"{at_least}{r['parallel_classes']} parallel classes; "
                                   f"max disjoint {r['max_disjoint']} (upper bound "
                                   f"{r['upper_bound']}, {r['status']})\n")
        seen.append((r["enumeration_complete"], r["max_disjoint"], r["upper_bound"]))
    assert seen == [(False, 2, 2), (False, 4, 4)]


def test_analyze_chi_inconclusive_text_and_json_agree(tmp_path, capsys):
    spath = tmp_path / "s33.sts"
    run(capsys, "fixture", "sts33", "--out", str(spath))
    chi = ("analyze", "chi", "--in", str(spath), "--exact", "--budget-nodes", "10")
    code, out, _ = run(capsys, *chi, "--json")
    assert code == 3
    r = json.loads(out)
    code, text, _ = run(capsys, *chi)
    assert (code, text) == (3, f"chromatic index in [{r['lower']}, {r['upper']}] "
                               "(inconclusive)\n")


def test_generate_out_dir_text_and_json_agree(tmp_path, capsys):
    gen = ("generate", "--v", "13", "--count", "2", "--seed", "4", "--out-dir", str(tmp_path))
    code, out, _ = run(capsys, *gen, "--json")
    assert code == 0
    files = json.loads(out)["files"]
    code, text, _ = run(capsys, *gen)
    assert code == 0
    assert text.splitlines() == ["generated 2 system(s) of order 13",
                                 *(f"wrote {f}" for f in files)]


def test_survey_generator_failure_text_and_json_agree(capsys, monkeypatch):
    from stskit import generator

    def fail_one(v, seed, **kwargs):
        if seed == generator.batch_seed(1, 1):
            raise GenerationError("stalled")
        return random_sts(v, seed, **kwargs)

    monkeypatch.setattr(generator, "random_sts", fail_one)
    survey = ("survey", "colouring", "--v", "9", "--count", "3", "--seed", "1")
    code, out, _ = run(capsys, *survey, "--json")
    assert code == 0
    r = json.loads(out)
    assert r["generator_failures"] == 1
    code, text, _ = run(capsys, *survey)
    assert code == 0
    assert text.splitlines() == [f"order 9 (m={r['m']}), 3 systems:",
                                 *(f"  {k}: {r['counts'][k]}" for k in ("m", "m+1", "m+2", "fail")),
                                 "  generator failures: 1"]


def test_generate_and_survey_refuse_a_negative_count_alike(capsys):
    for argv in (("generate", "--v", "9"), ("survey", "colouring", "--v", "9")):
        code, out, err = run(capsys, *argv, "--count", "-1")
        assert (code, out, err) == (2, "", "error: count must be >= 0, got -1\n"), argv


def test_generation_error_exits_2(capsys, monkeypatch):
    def stall(v, seed):
        raise GenerationError(f"order {v}: stalled")

    monkeypatch.setattr("stskit.generator.random_sts", stall)
    code, out, err = run(capsys, "generate", "--v", "9")
    assert (code, out, err) == (2, "", "error: order 9: stalled\n")


def test_bare_invocation_prints_help(capsys):
    assert main([]) == 2
