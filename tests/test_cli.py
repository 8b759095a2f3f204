"""End-to-end CLI tests: exit codes, JSON envelopes, CSV side outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aifs
from aifs import cli
from aifs.cli import build_parser, main
from aifs.verify import QReport

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def cantor4_file(tmp_path):
    doc = {
        "name": "cantor4",
        "matrix": [["4"]],
        "digits": [["0"], ["2"]],
        "frequencies": [["0"], ["1"]],
    }
    path = tmp_path / "cantor4.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bad_pair_file(tmp_path):
    doc = {
        "matrix": [["4"]],
        "digits": [["0"], ["2"]],
        "frequencies": [["0"], ["2"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    body = json.loads(out.out) if out.out.strip() else None
    return rc, body, out.err


# ---------------------------------------------------------------- envelope


def test_envelope_fields(capsys, cantor4_file):
    rc, body, _ = run(capsys, "check-hadamard", cantor4_file)
    assert rc == 0
    assert body["tool"] == "aifs"
    assert body["command"] == "check-hadamard"
    assert isinstance(body["version"], str)
    assert len(body["input_sha256"]) == 16
    assert int(body["input_sha256"], 16) >= 0  # hex digest prefix


def test_check_hadamard_certifies_good_pair(capsys, cantor4_file):
    rc, body, _ = run(capsys, "check-hadamard", cantor4_file)
    assert rc == 0
    h = body["hadamard"]
    assert h["certified"] is True
    assert h["ok"] is True
    assert h["defect"] <= 1e-12
    assert h["size"] == 2


def test_check_hadamard_rejects_bad_pair(capsys, bad_pair_file):
    rc, body, _ = run(capsys, "check-hadamard", bad_pair_file)
    assert rc == 1
    assert body["hadamard"]["ok"] is False
    assert body["hadamard"]["defect"] > 0.5


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_check_hadamard_rotates_out_a_phase_over_the_cap(capsys, tmp_path):
    # R^{-1}B = {x, x + 1/2} with x = 1/2000006: the phase denominator is
    # over Q_CAP, but e(x) + e(x + 1/2) = 0 exactly
    doc = {
        "matrix": [["2"]],
        "digits": [["1/1000003"], ["1000004/1000003"]],
        "frequencies": [["0"], ["1"]],
    }
    path = tmp_path / "big_phase.json"
    path.write_text(json.dumps(doc))
    rc, body, _ = run(capsys, "check-hadamard", str(path))
    assert rc == 0
    assert body["hadamard"]["certified"] is True


def test_check_hadamard_without_a_certificate_past_the_cap(capsys, tmp_path):
    # R^{-1}B = {0, 1000000/2000001}: the phase denominator stays over Q_CAP,
    # so nothing is certified, while the float defect is within --tol
    path = write_system(tmp_path, {
        "matrix": [["2000001/1000000"]], "digits": [["0"], ["1"]],
        "frequencies": [["0"], ["1"]],
    })
    rc, body, _ = run(capsys, "check-hadamard", path, "--tol", "1e-6")
    assert rc == 3
    h = body["hadamard"]
    assert h["certified"] is False and h["ok"] is False
    assert h["defect"] == pytest.approx(7.85e-7, rel=1e-3)


def test_check_hadamard_requires_frequencies(capsys, tmp_path):
    path = tmp_path / "nofreq.json"
    path.write_text(json.dumps({"matrix": [["4"]], "digits": [["0"], ["2"]]}))
    rc, body, err = run(capsys, "check-hadamard", str(path))
    assert rc == 2
    assert body is None
    assert err.startswith("error:")


def test_cycles_requires_frequencies(capsys, tmp_path):
    path = tmp_path / "nofreq.json"
    path.write_text(json.dumps({"matrix": [["4"]], "digits": [["0"], ["2"]]}))
    rc, body, err = run(capsys, "cycles", str(path))
    assert rc == 2
    assert body is None
    assert err.startswith("error:")


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_box_route_refusal_is_a_usage_error(capsys, tmp_path):
    # the dual digit (-1/2, 0) lies outside the dual of the digit lattice
    path = write_system(tmp_path, {
        "matrix": [[0, 3], [-1, -2]], "digits": [[0, 0], [-3, 3]],
        "frequencies": [[0, 0], ["-1/2", 0]],
    })
    rc, body, err = run(capsys, "cycles", path)
    assert rc == 2 and body is None
    assert err.startswith("error: dual digit (-1/2, 0)") and "--via words" in err
    rc, body, _ = run(capsys, "cycles", path, "--via", "words")
    assert rc == 0


def test_missing_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "zeros", "/no/such/file.json")
    assert rc == 2
    assert err.startswith("error:")


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "zeros", str(path))
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- commands


def test_mu_hat_value(capsys, cantor4_file):
    # 1 pulls back to the symbol zero 1/4 after one step, so the transform
    # vanishes exactly there
    rc, body, _ = run(capsys, "mu-hat", cantor4_file, "--x", "1")
    assert rc == 0
    m = body["mu_hat"]
    assert m["exact_zero"] is True
    assert m["abs"] == 0.0
    assert m["x"] == ["1"]


def test_mu_hat_budget_exhaustion_is_limit(capsys, cantor4_file):
    rc, body, err = run(
        capsys, "mu-hat", cantor4_file, "--x", "1/3", "--max-terms", "2"
    )
    assert rc == 3
    assert body is None
    assert err.startswith("limit:")


def test_orbit_budget_exhaustion_is_limit(capsys, tmp_path):
    # 1/7 -> 2/7 -> 4/7 -> 1/7 under times-2 closes only at the third step
    path = write_system(tmp_path, {"matrix": [["2"]], "digits": [["0"], ["1"]]})
    rc, body, err = run(capsys, "orbit", path, "--x", "1/7", "--max-iter", "2")
    assert rc == 3 and body is None
    assert err.strip().splitlines() == ["limit: orbit did not close within 2 steps"]
    rc, body, _ = run(capsys, "orbit", path, "--x", "1/7", "--max-iter", "3")
    assert rc == 0 and body["orbit"]["period"] == 3


def test_mu_hat_past_the_float_range(capsys, tmp_path):
    # |x| = 10^400 overflows a float, so the tail bound is infinite: the
    # factors m(10^400 / 4^n) are all 1 and 64 terms meet no tail bound,
    # while at 10^400 + 2 the first factor is an exact zero
    path = write_system(tmp_path, {"matrix": [["4"]], "digits": [["0"], ["1"]]})
    rc, body, err = run(capsys, "mu-hat", path, "--x", "1e400")
    assert rc == 3 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("limit: tail bound")
    rc, body, _ = run(capsys, "mu-hat", path, "--x", str(10**400 + 2))
    assert rc == 0
    assert body["mu_hat"]["exact_zero"] is True
    assert body["mu_hat"]["terms_used"] == 1


def test_attractor_csv(capsys, cantor4_file, tmp_path):
    out = tmp_path / "cloud.csv"
    rc, body, _ = run(
        capsys, "attractor", cantor4_file, "--depth", "3", "--csv", str(out)
    )
    assert rc == 0
    assert body["attractor"]["points"] == 8
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0"
    assert len(lines) == 9


def test_zeros_payload(capsys, cantor4_file):
    rc, body, _ = run(capsys, "zeros", cantor4_file)
    assert rc == 0
    z = body["zeros"]
    assert z["complete"] is True
    assert z["points"] == [["1/4"], ["3/4"]]


def test_orbit_payload(capsys, cantor4_file):
    rc, body, _ = run(capsys, "orbit", cantor4_file, "--x", "1/5")
    assert rc == 0
    o = body["orbit"]
    assert o["preperiod"] == 0
    assert o["period"] == 2
    assert o["periodic"] is True
    assert o["cycle"] == [["1/5"], ["4/5"]]


def test_bound_finite_route_no_cap_when_zero_reached(capsys, cantor4_file):
    # the zero orbit closure of this system hits 0, so no finite family
    # bound exists (the system carries infinite orthogonal families)
    rc, body, _ = run(capsys, "bound", cantor4_file)
    assert rc == 0
    b = body["bound"]
    assert b["route"] == "finite-orbit"
    assert b["bound"] is None
    assert b["contains_zero"] is True


def test_bound_finite_route_with_cap(capsys, tmp_path):
    path = tmp_path / "scale3.json"
    path.write_text(json.dumps({"matrix": [["3"]], "digits": [["0"], ["1"]]}))
    rc, body, _ = run(capsys, "bound", str(path))
    assert rc == 0
    b = body["bound"]
    assert b["route"] == "finite-orbit"
    assert b["orbit_closure_size"] == 1
    assert b["bound"] == 2
    assert b["contains_zero"] is False


def test_dn_report(capsys):
    rc, body, _ = run(capsys, "dn", "--p", "3", "--d", "1", "--n-max", "2")
    assert rc == 0
    m = body["min_sum"]
    assert m["p"] == 3
    assert m["d"] == 1
    assert len(m["values"]) == 2


def test_cycles_command(capsys, cantor4_file):
    rc, body, _ = run(capsys, "cycles", cantor4_file, "--via", "words")
    assert rc == 0
    c = body["extreme_cycles"]
    assert c["count"] == 1
    assert c["cycles"][0]["points"] == [["0"]]


def test_spectrum_command_with_csv_and_cap(capsys, cantor4_file, tmp_path):
    out = tmp_path / "spec.csv"
    rc, body, _ = run(
        capsys, "spectrum", cantor4_file, "--level", "3", "--csv", str(out),
        "--print-cap", "4",
    )
    assert rc == 0
    s = body["spectrum"]
    assert s["size"] == 8
    assert s["elements"] is None  # above the print cap
    assert len(out.read_text().strip().splitlines()) == 9


def test_spectrum_command_prints_elements(capsys, cantor4_file):
    rc, body, _ = run(capsys, "spectrum", cantor4_file, "--level", "2")
    assert rc == 0
    assert body["spectrum"]["elements"] == [["0"], ["1"], ["4"], ["5"]]


def test_verify_onb_certifies(capsys, cantor4_file):
    rc, body, _ = run(
        capsys, "verify-onb", cantor4_file, "--level", "2", "--samples", "4"
    )
    assert rc == 0
    v = body["verify_onb"]
    assert v["verdict"] == "orthogonal-certified"
    assert v["certified"] == v["pairs"] == 6
    assert v["q_max"] <= 1 + v["q_error_bound"] + 1e-8


def test_verify_onb_past_bessel_is_an_internal_error(
    capsys, cantor4_file, monkeypatch
):
    # every pair of the level-2 cantor4 spectrum is certified, so Q <= 1
    # is exact; a Q past its bound can only be a wrong error bound
    monkeypatch.setattr(
        cli, "completeness_q", lambda *a, **k: QReport((0.5, 1.25), (), 1e-3)
    )
    with pytest.raises(RuntimeError, match=r"Q = 1\.25 at level 2"):
        main(["verify-onb", cantor4_file, "--level", "2"])
    assert capsys.readouterr().out == ""


def test_probe_conjecture(capsys, cantor4_file):
    rc, body, _ = run(capsys, "probe-conjecture", cantor4_file)
    assert rc == 0
    p = body["probe"]
    assert p["experimental"] is True
    assert [o["verdict"] for o in p["orientations"]] == [
        "spectral-evidence",
        "spectral-evidence",
    ]


def test_catalog_list(capsys):
    rc, body, _ = run(capsys, "catalog", "list")
    assert rc == 0
    entries = body["catalog"]["entries"]
    assert len(entries) == 17
    assert "cantor4" in entries


def test_catalog_run_single(capsys):
    rc, body, _ = run(capsys, "catalog", "run", "cantor4")
    assert rc == 0
    c = body["catalog"]
    assert c["ok"] is True
    assert c["failed"] == []
    assert c["entries"][0]["name"] == "cantor4"


def test_attractor_default_depth_fits_the_cloud_cap(capsys, tmp_path):
    # five digits: the default depth gives 5^6 = 15,625 points, under the cap
    from aifs import catalog

    path = tmp_path / "propdiv.json"
    path.write_text(json.dumps(catalog.load_entry("propdiv-p6-d4")["system"]))
    rc, body, _ = run(capsys, "attractor", str(path))
    assert rc == 0
    assert body["attractor"]["depth"] == 6
    assert body["attractor"]["points"] == 5**6


def test_bound_refuses_incomplete_zero_set(capsys, tmp_path):
    # the zeros of 1 + e(x1) are the whole line x1 = 1/2, which the numeric
    # sweep only samples, so no finite-orbit bound may be reported
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "matrix": [["3", "0"], ["0", "3"]],
        "digits": [["0", "0"], ["1", "0"]],
    }))
    rc, body, _ = run(capsys, "bound", str(path))
    assert rc == 3
    assert body["bound"]["complete"] is False
    assert "bound" not in body["bound"]


def test_bound_refuses_a_rational_matrix(capsys, tmp_path):
    # the zero set of this simplex system is complete, but x -> S x mod Z^2
    # with S = (5/2) I never closes up; the finite-orbit route must refuse
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({
        "matrix": [["5/2", "0"], ["0", "5/2"]],
        "digits": [["0", "0"], ["1", "0"], ["0", "1"]],
    }))
    rc, body, err = run(capsys, "bound", str(path))
    assert rc == 2
    assert body is None
    assert "torus dynamics needs an integer matrix" in err


def test_attractor_chaos_reports_no_depth(capsys, cantor4_file):
    rc, body, _ = run(
        capsys, "attractor", cantor4_file, "--chaos", "--count", "64"
    )
    assert rc == 0
    assert body["attractor"]["mode"] == "chaos"
    assert body["attractor"]["points"] == 64
    assert body["attractor"]["depth"] is None


# ---------------------------------------------------------------- bad input


@pytest.mark.parametrize(
    "text",
    [
        '{"matrix": [[4]], "digits": [[0], [0.5]]}',
        '{"matrix": [[4]], "digits": [[0], [1e400]]}',  # 1e400 is read as inf
        '{"matrix": [[4]]}',
    ],
)
def test_malformed_system_file_is_one_usage_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, body, err = run(capsys, "zeros", str(path))
    assert rc == 2 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert '"digits"' in lines[0]


def test_malformed_frequency_names_its_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": [[4]], "digits": [[0], [2]], "frequencies": [[0], ["x"]]}')
    rc, body, err = run(capsys, "check-hadamard", str(path))
    assert rc == 2 and body is None
    assert err.startswith('error: bad "frequencies" value')


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-onb", "SYS", "--level", "2", "--samples", "0"],
        ["probe-conjecture", "SYS", "--samples", "0"],
        ["probe-conjecture", "SYS", "--samples", "-1"],
        ["verify-onb", "SYS", "--level", "-1"],
        ["probe-conjecture", "SYS", "--level", "-1"],
        ["attractor", "SYS", "--chaos", "--count", "0"],
        ["attractor", "SYS", "--depth", "-1"],
        ["spectrum", "SYS", "--level", "-1"],
        ["cycles", "SYS", "--max-period", "0"],
        ["dn", "--p", "3", "--d", "2", "--n-max", "0"],
        ["dn", "--p", "3", "--d", "0"],
        ["dn", "--p", "1", "--d", "2"],
        ["dn", "--p", "x", "--d", "2"],
        ["mu-hat", "SYS", "--x", "1/3", "--max-terms", "0"],
        ["orbit", "SYS", "--x", "1/3", "--max-iter", "0"],
        ["mu-hat", "SYS", "--x", "1/3", "--tail", "-1"],
        ["mu-hat", "SYS", "--x", "1/3", "--tail", "nan"],
        ["mu-hat", "SYS", "--x", "1/3", "--tail", "0"],
        ["check-hadamard", "SYS", "--tol", "nan"],
        ["check-hadamard", "SYS", "--tol", "-1"],
        ["spectrum", "SYS", "--level", "2", "--print-cap", "-1"],
    ],
)
def test_out_of_range_counts_are_rejected_by_the_parser(capsys, cantor4_file, argv):
    argv = [cantor4_file if a == "SYS" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_count_flags_accept_their_lower_bound(capsys, cantor4_file):
    rc, body, _ = run(capsys, "spectrum", cantor4_file, "--level", "0")
    assert rc == 0 and body["spectrum"]["level"] == 0
    rc, body, _ = run(capsys, "dn", "--p", "2", "--d", "1", "--n-max", "1")
    assert rc == 0 and body["min_sum"]["p"] == 2
    # parsed: the rounding defect of a certified pair is over a zero tolerance
    rc, body, _ = run(capsys, "check-hadamard", cantor4_file, "--tol", "0")
    assert rc in (0, 1) and body["hadamard"]["certified"] is True


def test_check_hadamard_certified_is_ok_whatever_the_tolerance(capsys, cantor4_file):
    # the float defect 2.2e-16 is over --tol 0, but the certificate is exact
    rc, body, _ = run(capsys, "check-hadamard", cantor4_file, "--tol", "0")
    assert rc == 0
    h = body["hadamard"]
    assert h["certified"] is True and h["ok"] is True and h["defect"] > 0


@pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1]"])
def test_system_file_must_hold_an_object(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, body, err = run(capsys, "zeros", str(path))
    assert rc == 2 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_slowly_contracting_system_is_a_limit(capsys, tmp_path):
    # expansive, so the attractor builds, but its inverse contracts too
    # slowly for the 64 product terms of the tail budget
    path = tmp_path / "slow.json"
    path.write_text('{"matrix": [["10001/10000"]], "digits": [[0], [1]]}')
    rc, _, _ = run(capsys, "attractor", str(path), "--depth", "2")
    assert rc == 0
    rc, body, err = run(capsys, "mu-hat", str(path), "--x", "1/3")
    assert rc == 3 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("limit:")
    # R^{-1} = [[999/1000, 1], [0, 999/1000]]: too slowly for the contraction
    # scan itself, whose norms stay above 1 past the 4096th power
    path.write_text('{"matrix": [["1000/999", "-1000000/998001"], ["0", "1000/999"]], '
                    '"digits": [[0, 0], [1, 0]]}')
    rc, body, err = run(capsys, "mu-hat", str(path), "--x", "1/3,1/5")
    assert rc == 3 and body is None
    assert err.startswith("limit: no power up to 4096")


def test_unit_modulus_rotation_is_not_expansive(capsys, tmp_path):
    # the 3-4-5 rotation has both eigenvalue moduli exactly 1: an exact
    # NotExpansive verdict, which the CLI reports as a usage error
    path = tmp_path / "rotation.json"
    path.write_text('{"matrix": [["3/5", "-4/5"], ["4/5", "3/5"]], '
                    '"digits": [[0, 0], [1, 0]]}')
    rc, body, err = run(capsys, "zeros", str(path))
    assert rc == 2 and body is None
    assert err.strip() == "error: R must have all eigenvalue moduli > 1"


def test_consecutive_calls_share_no_parser_state(capsys, cantor4_file):
    assert build_parser() is build_parser()
    rc, body, _ = run(
        capsys, "cycles", cantor4_file, "--via", "words", "--max-period", "3"
    )
    assert rc == 0 and body["extreme_cycles"]["via"] == "words"
    # the next call sees the defaults again, not the previous call's flags
    rc, body, _ = run(capsys, "cycles", cantor4_file)
    assert rc == 0 and body["extreme_cycles"]["via"] == "box"
    rc, body, _ = run(capsys, "verify-onb", cantor4_file, "--level", "2")
    assert rc == 0 and body["command"] == "verify-onb"
    assert body["verify_onb"]["level"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["zeros", cantor4_file, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, body, _ = run(capsys, "zeros", cantor4_file)
    assert rc == 0 and body["command"] == "zeros"


def write_system(tmp_path, doc):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("x", ["1/3", "1/3,1/5,1/7"])
def test_mu_hat_refuses_a_point_of_the_wrong_dimension(capsys, tmp_path, x):
    path = write_system(tmp_path, {
        "matrix": [[3, 0], [0, 3]], "digits": [[0, 0], [1, 0], [0, 1]],
    })
    rc, body, err = run(capsys, "mu-hat", path, "--x", x)
    assert rc == 2 and body is None
    assert err.strip() == "error: dimension mismatch"


def test_check_hadamard_refuses_frequencies_of_the_wrong_dimension(capsys, tmp_path):
    path = write_system(tmp_path, {
        "matrix": [[2, 0], [0, 2]], "digits": [[0, 0], [1, 0]],
        "frequencies": [[0], [1]],
    })
    rc, body, err = run(capsys, "check-hadamard", path)
    assert rc == 2 and body is None
    assert err.strip() == "error: dimension mismatch"


def test_verify_onb_on_an_empty_spectrum(capsys, tmp_path):
    # no extreme cycles, so no frequencies: nothing to pair, and Q = 0
    path = write_system(tmp_path, {
        "matrix": [[3]], "digits": [[0], [1]], "frequencies": [[1], [3]],
    })
    rc, body, _ = run(capsys, "verify-onb", path, "--level", "2")
    assert rc == 0
    rep = body["verify_onb"]
    assert rep["size"] == rep["pairs"] == 0
    assert rep["q_min"] == rep["q_max"] == 0.0


@pytest.mark.parametrize("command", ["mu-hat", "orbit"])
@pytest.mark.parametrize("x", ["1/0", "1/3,abc"])
def test_malformed_point_is_one_usage_error(capsys, cantor4_file, command, x):
    # a zero denominator fails with ZeroDivisionError, not ValueError
    rc, body, err = run(capsys, command, cantor4_file, "--x", x)
    assert rc == 2 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad --x value")


def catalog_system_file(tmp_path, name):
    from aifs import catalog

    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(catalog.load_entry(name)["system"]))
    return str(path)


def test_bound_distance_route(capsys, tmp_path):
    # the zeros of d3-p3 are three families of lines, so the bound comes
    # from their distance to the integer lattice, not from a finite orbit
    rc, body, _ = run(capsys, "bound", catalog_system_file(tmp_path, "d3-p3"))
    assert rc == 0
    b = body["bound"]
    assert b["route"] == "distance"
    assert b["delta_sq"] == "1/4"
    assert b["bound"] == 64
    assert b["note"]


def test_bound_refuses_zero_circles_at_an_even_scale(capsys, tmp_path):
    # d3-p4 (scalar 4) has zero circles, but the distance route needs the
    # pinned 1/2 coordinate that only an odd scalar keeps
    rc, body, err = run(capsys, "bound", catalog_system_file(tmp_path, "d3-p4"))
    assert rc == 2 and body is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: distance bound for zero continua is only available for odd "
        "scalar matrices"
    )


def test_zeros_describes_its_families(capsys, tmp_path):
    rc, body, _ = run(capsys, "zeros", catalog_system_file(tmp_path, "d3-p3"))
    assert rc == 0
    z = body["zeros"]
    assert z["complete"] is True and z["points"] == []
    assert z["families"] == [
        {"pinned": "x1 = 1/2", "relation": "x3 = x2 + 1/2 (mod 1)"},
        {"pinned": "x2 = 1/2", "relation": "x3 = x1 + 1/2 (mod 1)"},
        {"pinned": "x3 = 1/2", "relation": "x2 = x1 + 1/2 (mod 1)"},
    ]


def test_zeros_unavailable_in_dimension_four(capsys, tmp_path):
    path = catalog_system_file(tmp_path, "propdiv-p6-d4")
    rc, body, _ = run(capsys, "zeros", path)
    assert rc == 3
    assert body["zeros"]["tag"] == "unavailable"
    assert body["zeros"]["complete"] is False


def test_verify_onb_not_orthogonal(capsys, tmp_path):
    # the frequencies {0, 1} do not match the digits {0, 1} at scale 4:
    # every pair of the level-2 spectrum {0, 1, 4, 5} fails
    path = write_system(tmp_path, {
        "matrix": [["4"]], "digits": [["0"], ["1"]],
        "frequencies": [["0"], ["1"]],
    })
    rc, body, _ = run(capsys, "verify-onb", path, "--level", "2")
    assert rc == 1
    v = body["verify_onb"]
    assert v["size"] == 4
    assert v["pairs"] == v["not_orthogonal"] == 6
    assert v["certified"] == v["undetermined"] == 0
    assert v["verdict"] == "not-orthogonal"


# ---------------------------------------------------------------- package


def test_version_literal_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    assert aifs.__version__ == version


def test_cli_import_leaves_package_metadata_unloaded():
    code = (
        "import sys; before = set(sys.modules); import aifs.cli; "
        "print('importlib.metadata' in set(sys.modules) - before)"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_export_list_resolves():
    missing = [name for name in aifs.__all__ if not hasattr(aifs, name)]
    assert missing == []
    namespace = {}
    exec("from aifs import *", namespace)
    assert set(aifs.__all__) <= set(namespace)
