"""JSON-facing encoding and decoding.

Exact rationals travel as strings ("3/4", "-2"), never as floats: reports
must round-trip without losing the arithmetic they certify. Every report is
wrapped in an envelope carrying the tool version and a hash of the input
document, so results can be traced to what produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction

from .errors import AifsError
from .ifs_core import AffineSystem
from .linalg_exact import Matrix, frac, fvec


def to_jsonable(x):
    """Recursively convert package objects to plain JSON values."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        out = {"type": type(x).__name__}
        for f in dataclasses.fields(x):
            out[f.name] = to_jsonable(getattr(x, f.name))
        return out
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    raise TypeError("cannot serialise %r" % type(x))


def _field(doc: dict, key: str, convert, *default) -> tuple:
    """convert applied to each item of doc[key] (of the default when the key
    is absent); a missing or malformed entry raises an AifsError naming it."""
    if key not in doc and not default:
        raise AifsError('the system has no "%s" entry' % key)
    value = doc.get(key, *default)
    try:
        return tuple(convert(x) for x in value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise AifsError('bad "%s" value %r: %s' % (key, value, exc)) from None


def system_from_dict(doc: dict) -> AffineSystem:
    if not isinstance(doc, dict):
        raise AifsError("a system file must hold a JSON object")
    return AffineSystem(
        R=Matrix(_field(doc, "matrix", fvec)),
        digits=_field(doc, "digits", fvec),
        weights=_field(doc, "weights", frac, ()),
        name=doc.get("name", ""),
    )


def frequencies_from_dict(doc: dict):
    if doc.get("frequencies") is None:
        return None
    return _field(doc, "frequencies", fvec)


def input_hash(doc) -> str:
    blob = json.dumps(to_jsonable(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report_envelope(command: str, input_doc, payload: dict) -> dict:
    from . import __version__

    return {
        "tool": "aifs",
        "version": __version__,
        "command": command,
        "input_sha256": input_hash(input_doc) if input_doc is not None else None,
        **to_jsonable(payload),
    }
