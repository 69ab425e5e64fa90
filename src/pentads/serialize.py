"""Exact JSON encoding for pentads, search results, and certificates.

Scalars travel as strings "p/q" (or "p" when the denominator is 1) so that
nothing ever rounds; an input string must read [+-]?[0-9]+(/[0-9]+)?, plain
JSON integers are accepted on input, floats are not.  Matrices are
row-major nested arrays of such scalars.  A pentad file carries {algebra,
action, dual_action?, pairing?, form?} with the omitted parts defaulting to
the contragredient action, the identity pairing, and the trace form.
"""

from __future__ import annotations

import json

from .exact_linalg import Matrix, Q, Vec, qof, qstr
from .lie import build_algebra, trace_form
from .pentad import DualModule, Representation, StandardPentad, dual_representation


class SerializationError(ValueError):
    pass


def scalar_from_json(obj) -> Q:
    kind = type(obj)  # exact: a bool is not an int here
    if kind is int:
        return obj
    if kind is str:
        try:
            return qof(obj)
        except (ValueError, ZeroDivisionError, TypeError):
            raise SerializationError(f"malformed rational literal: {obj!r}") from None
    raise SerializationError(f"not an exact scalar: {obj!r}")


def vector_to_json(v: Vec) -> list[str]:
    return [qstr(x) for x in v]


def vector_from_json(obj) -> Vec:
    if not isinstance(obj, list):
        raise SerializationError("a vector must be a JSON array")
    return tuple(scalar_from_json(x) for x in obj)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    out = []
    for row in m.nonzeros:
        cells = ["0"] * m.cols
        for j, x in row:
            cells[j] = qstr(x)
        out.append(cells)
    return out


def matrix_from_json(obj) -> Matrix:
    """The matrix of a JSON array of rows, built from its nonzeros.  The
    literal "0", most cells of a pentad file, is skipped unparsed; every
    other cell is parsed, in row-major order, before the rows are checked
    for equal length."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SerializationError("a matrix must be a non-empty JSON array of rows")
    nonzeros = tuple(tuple((j, q) for j, x in enumerate(row)
                           if x != "0" and (q := scalar_from_json(x)))
                     for row in obj)
    cols = len(obj[0])
    if any(len(row) != cols for row in obj):
        raise SerializationError("ragged rows")
    return Matrix.from_nonzeros(nonzeros, cols)


def _require_keys(obj, required, optional, what):
    if not isinstance(obj, dict):
        raise SerializationError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SerializationError(f"{what} is missing keys: {', '.join(missing)}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise SerializationError(f"{what} has unknown keys: {', '.join(unknown)}")


def algebra_to_json(alg) -> dict:
    return {
        "ambient_size": alg.ambient_size,
        "basis": [matrix_to_json(b) for b in alg.basis],
    }


def algebra_from_json(obj):
    _require_keys(obj, ("ambient_size", "basis"), (), "an algebra description")
    size = obj["ambient_size"]
    if type(size) is not int or size < 1:  # exact: a bool is not an int here
        raise SerializationError("ambient_size must be a positive integer")
    if not isinstance(obj["basis"], list) or not obj["basis"]:
        raise SerializationError("basis must be a non-empty array of matrices")
    return build_algebra(size, tuple(matrix_from_json(b) for b in obj["basis"]))


def pentad_to_json(p: StandardPentad) -> dict:
    return {
        "algebra": algebra_to_json(p.algebra),
        "action": [matrix_to_json(a) for a in p.rep.action],
        "dual_action": [matrix_to_json(a) for a in p.dual.action],
        "pairing": matrix_to_json(p.dual.pairing),
        "form": matrix_to_json(p.form),
    }


def pentad_from_json(obj) -> StandardPentad:
    _require_keys(obj, ("algebra", "action"),
                  ("dual_action", "pairing", "form"), "a pentad description")
    alg = algebra_from_json(obj["algebra"])
    if not isinstance(obj["action"], list):
        raise SerializationError("action must be an array of matrices")
    rep = Representation(alg, tuple(matrix_from_json(a) for a in obj["action"]))
    pairing = (matrix_from_json(obj["pairing"]) if "pairing" in obj
               else Matrix.identity(rep.module_dim))
    if "dual_action" in obj:
        if not isinstance(obj["dual_action"], list):
            raise SerializationError("dual_action must be an array of matrices")
        dual = DualModule(tuple(matrix_from_json(a) for a in obj["dual_action"]),
                          pairing)
    else:
        dual = dual_representation(rep, pairing)
    form = matrix_from_json(obj["form"]) if "form" in obj else trace_form(alg)
    return StandardPentad(rep, dual, form)


def _form_descriptor(p: StandardPentad):
    """The certificate's form field: "trace" for the trace form, else the gram."""
    if p.form == p.algebra.trace_gram:
        return "trace"
    return matrix_to_json(p.form)


def _witness_to_json(witness):
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        out[key] = vector_to_json(value) if isinstance(value, tuple) else value
    return out


def verdict_to_json(v: RegularityVerdict, p: StandardPentad) -> dict:
    return {
        "outcome": v.outcome,
        "H0": None if v.h0 is None else vector_to_json(v.h0),
        "X": None if v.x is None else vector_to_json(v.x),
        "Y": None if v.y is None else vector_to_json(v.y),
        "ranks": {label: list(pair) for label, pair in v.ranks.items()},
        "witness": _witness_to_json(v.witness),
        "seed": v.seed,
        "attempts": v.attempts,
        "form": _form_descriptor(p),
    }


_OUTCOMES = ("Regular", "NotRegular", "Inconclusive")


def verdict_from_json(obj) -> RegularityVerdict:
    from .preh import RegularityVerdict  # only certificate readers load preh
    _require_keys(obj, ("outcome", "H0", "X", "Y", "ranks", "witness", "seed"),
                  ("attempts", "form"), "a certificate")
    if obj["outcome"] not in _OUTCOMES:
        raise SerializationError(f"outcome must be one of {', '.join(_OUTCOMES)}")
    attempts = obj.get("attempts", 64)
    if type(obj["seed"]) is not int or type(attempts) is not int:  # excludes bool
        raise SerializationError("seed and attempts must be integers")
    witness = obj["witness"]
    if witness is not None:
        if not isinstance(witness, dict):
            raise SerializationError("witness must be an object or null")
        if any(type(v) is bool for v in witness.values()):  # true would replay as 1
            raise SerializationError("witness values must not be booleans")
        witness = {k: vector_from_json(v) if isinstance(v, list) or k == "vector" else v
                   for k, v in witness.items()}
    ranks = obj["ranks"]
    if not isinstance(ranks, dict) or not all(
            isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)
            for v in ranks.values()):
        raise SerializationError("ranks must map labels to pairs of integers")
    return RegularityVerdict(
        outcome=obj["outcome"],
        h0=None if obj["H0"] is None else vector_from_json(obj["H0"]),
        x=None if obj["X"] is None else vector_from_json(obj["X"]),
        y=None if obj["Y"] is None else vector_from_json(obj["Y"]),
        ranks={k: tuple(v) for k, v in ranks.items()},
        witness=witness,
        seed=obj["seed"],
        attempts=attempts,
    )


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation."""
    return json.dumps(obj, indent=2, sort_keys=True)
