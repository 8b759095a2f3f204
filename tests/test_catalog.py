"""Bundled example entries: loading, frozen expectations, builders."""

from fractions import Fraction

import pytest

from aifs import verify
from aifs.catalog import (
    collinear_spectrum_digits,
    entry_names,
    load_entry,
    run_all,
    run_entry,
    simplex_spectrum_digits,
)
from aifs.errors import AifsError
from aifs.ifs_core import simplex_digits, simplex_system
from aifs.serialize import to_jsonable
from aifs.torus_dynamics import find_zeros

EXPECTED_NAMES = [
    "cantor4",
    "d1-p2",
    "d1-p3",
    "d1-p4",
    "d2-p2",
    "d2-p3",
    "d2-p4",
    "d2-p5",
    "d2-p6",
    "d3-p2",
    "d3-p3",
    "d3-p4",
    "propdiv-p6-d4",
    "shear-2-1",
    "thpmuld-d2-p3",
    "thpmuld-d2-p6",
    "weighted-example",
]


def test_entry_names_complete_and_sorted():
    assert entry_names() == EXPECTED_NAMES


def test_load_entry_missing_name():
    with pytest.raises(AifsError) as exc:
        load_entry("no-such-entry")
    assert "cantor4" in str(exc.value)  # the error lists what exists


def test_load_entry_shape():
    entry = load_entry("cantor4")
    assert entry["name"] == "cantor4"
    assert entry["checks"]
    assert "matrix" in entry["system"]


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_entry_passes_its_frozen_checks(name):
    rep = run_entry(load_entry(name))
    failed = [c for c in rep.checks if not c.ok]
    assert rep.ok, "failed checks: %s" % [
        (c.kind, c.detail) for c in failed
    ]


def test_run_all_smoke():
    reps = run_all(names=["cantor4", "d1-p2"])
    assert [r.name for r in reps] == ["cantor4", "d1-p2"]
    assert all(r.ok for r in reps)
    d = to_jsonable(reps[0])
    assert d["name"] == "cantor4"
    assert all(c["ok"] for c in d["checks"])


# ---------------------------------------------------------------- builders


def test_simplex_digits():
    assert simplex_digits(2) == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )


def test_simplex_system_shape():
    s = simplex_system(5, 3)
    assert s.dim == 3
    assert s.n_digits == 4
    assert s.R.rows[0][0] == 5


def test_simplex_spectrum_digits_values():
    assert simplex_spectrum_digits(2, 1) == ((Fraction(0),), (Fraction(1),))
    a = Fraction(2)
    assert simplex_spectrum_digits(3, 2) == (
        (Fraction(0), Fraction(0)),
        (a, -a),
        (-a, a),
    )
    assert len(simplex_spectrum_digits(2, 3)) == 4


def test_simplex_spectrum_digits_divisibility_errors():
    with pytest.raises(ValueError):
        simplex_spectrum_digits(3, 1)  # odd p, d = 1
    with pytest.raises(ValueError):
        simplex_spectrum_digits(4, 2)  # p not divisible by 3
    with pytest.raises(ValueError):
        simplex_spectrum_digits(3, 3)  # odd p, d = 3
    with pytest.raises(ValueError):
        simplex_spectrum_digits(6, 4)  # no closed form past d = 3


def test_collinear_spectrum_digits():
    freqs = collinear_spectrum_digits(6, 2)
    assert freqs == (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(4)),
        (Fraction(4), Fraction(8)),
    )
    with pytest.raises(ValueError):
        collinear_spectrum_digits(7, 2)


def test_unknown_and_crashing_checks_fail_the_entry():
    doc = {
        "name": "scale-5/2",
        "system": {"matrix": [["5/2"]], "digits": [["0"], ["1"]]},
        "checks": [{"kind": "no-such-kind"}, {"kind": "finite_bound"}],
    }
    rep = run_entry(doc)
    assert not rep.ok
    assert [(c.kind, c.ok, c.detail) for c in rep.checks] == [
        ("no-such-kind", False, {"error": "unknown check kind"}),
        ("finite_bound", False,
         {"error": "ValueError: torus dynamics needs an integer matrix"}),
    ]


def test_entry_searches_its_zeros_once(monkeypatch):
    # d1-p3 reads the zero set in its zeros and family_size checks
    calls = []

    def counted(sys):
        calls.append(sys)
        return find_zeros(sys)

    monkeypatch.setattr(verify, "find_zeros", counted)
    assert run_entry("d1-p3").ok
    assert len(calls) == 1
