"""Fingerprint the CLI's output over the bundled catalog.

Runs ``aifs.cli.main`` in-process for every bundled entry and subcommand,
plus ``verify-onb`` at the onb benchmark's sizes, ``catalog run all``,
``catalog list`` and ``dn``, and prints one line per run: a label and the
sha256 of its exit code, stdout and stderr, with the ``"seconds"`` timing
values masked. Two checkouts that print the same lines produce
byte-identical reports apart from timing.

    python tools/cli_snapshot.py > snapshot.txt

The package is imported from the ``src`` directory next to this script, so
a copy of the script placed in another checkout fingerprints that checkout.
An uncaught exception in any run ends the script with a traceback.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from aifs import catalog, cli  # noqa: E402

#: a rational sample point per dimension
POINTS = ("1/3", "1/3,2/5", "1/3,2/5,1/7", "1/3,2/5,1/7,3/11")
SECONDS = re.compile(r'("seconds": )[-0-9.e+]+')
#: (entry, level): the verify-onb runs of the onb benchmark workload, at
#: their full size (256 to 1024 frequencies)
ONB_RUNS = (("d3-p4", 4), ("d3-p2", 3), ("cantor4", 10))


def entry_runs(path: str, dim: int) -> list:
    """(label, argv) for every subcommand that reads a system file."""
    x = POINTS[dim - 1]
    return [
        ("cycles", ["cycles", path]),
        ("cycles-words", ["cycles", path, "--via", "words", "--max-period", "6"]),
        ("spectrum", ["spectrum", path, "--level", "2"]),
        ("verify-onb", ["verify-onb", path, "--level", "2"]),
        ("probe", ["probe-conjecture", path]),
        ("orbit", ["orbit", path, "--x", x]),
        ("bound", ["bound", path]),
        ("mu-hat", ["mu-hat", path, "--x", x]),
        ("check-hadamard", ["check-hadamard", path]),
        ("zeros", ["zeros", path]),
        ("attractor", ["attractor", path, "--depth", "6"]),
        ("attractor-chaos", ["attractor", path, "--chaos", "--count", "256"]),
    ]


def fingerprint(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    blob = "%d\n%s\n%s" % (rc, SECONDS.sub(r"\g<1>0", out.getvalue()),
                           err.getvalue())
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> int:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in catalog.entry_names():
            doc = catalog.load_entry(name)["system"]
            path = str(Path(tmp) / (name + ".json"))
            Path(path).write_text(json.dumps(doc))
            runs += [
                ("%s:%s" % (name, label), argv)
                for label, argv in entry_runs(path, len(doc["matrix"]))
            ]
        for name, level in ONB_RUNS:
            path = str(Path(tmp) / (name + ".json"))
            runs.append(("%s:verify-onb-L%d" % (name, level),
                         ["verify-onb", path, "--level", str(level)]))
        runs += [
            ("catalog-run-all", ["catalog", "run", "all"]),
            ("catalog-list", ["catalog", "list"]),
            ("dn", ["dn", "--p", "3", "--d", "2", "--n-max", "2"]),
        ]
        for label, argv in runs:
            print(label, fingerprint(argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
