"""Command line front end.

Every command prints a single JSON document to stdout.  Output is
byte-stable for fixed inputs and seeds: keys are sorted, indentation is
fixed, and every scalar is exact.  Exit status 0 means the answer was
computed (negative verdicts included), 1 means the input failed to load
or validate (the document says why), 2 means the invocation itself was
malformed.

A command imports the modules it alone needs (catalog, graded, preh) when it
runs, so each process compiles only the code its command uses.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact_linalg import Vec, qof
from .lie import LieAlgebraError
from .pentad import (PentadError, StandardPentad, ValidationReport, check_standard,
                     grading_element)
from .serialize import (MAX_ATTEMPTS, SerializationError, dumps, pentad_from_json,
                        vector_to_json, verdict_from_json, verdict_to_json)


class _InputError(Exception):
    """Carries the JSON report explaining why the input was rejected."""

    def __init__(self, report: dict):
        super().__init__(str(report))
        self.report = report


def _emit(obj) -> None:
    print(dumps(obj))


def _vector_arg(text: str) -> Vec:
    try:
        return tuple(qof(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a comma-separated vector of rationals: {text!r}") from None


def _report_json(rep: ValidationReport) -> dict:
    return {
        "ok": rep.ok,
        "failures": [{"axiom": f.axiom, "indices": list(f.indices),
                      "detail": f.detail} for f in rep.failures],
        "notes": list(rep.notes),
    }


def _load_pentad(args) -> StandardPentad:
    if args.example is not None:
        from .catalog import CatalogError, resolve
        try:
            return resolve(args.example).build()
        except CatalogError as exc:
            raise _InputError({"error": str(exc)}) from exc
    try:
        with open(args.pentad, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _InputError({"error": f"cannot read {args.pentad}: {exc}"}) from exc
    except UnicodeDecodeError as exc:
        raise _InputError({"error": f"{args.pentad} is not valid UTF-8: {exc}"}) from exc
    except (ValueError, RecursionError) as exc:
        raise _InputError({"error": f"{args.pentad} is not valid JSON: {exc}"}) from exc
    try:
        return pentad_from_json(raw)
    except (SerializationError, LieAlgebraError, PentadError) as exc:
        raise _InputError({"error": str(exc)}) from exc


def _validated_pentad(args) -> StandardPentad:
    p = _load_pentad(args)
    rep = check_standard(p)
    if not rep.ok:
        raise _InputError(_report_json(rep))
    return p


def _sampled_pentad(args) -> StandardPentad:
    """The validated pentad of a command that samples generic points."""
    if args.attempts < 0:
        raise _InputError({"error": "--attempts must be non-negative"})
    if args.attempts > MAX_ATTEMPTS:
        raise _InputError({"error": f"--attempts must be at most {MAX_ATTEMPTS}"})
    return _validated_pentad(args)


def _require_length(name: str, v: Vec, n: int) -> None:
    if len(v) != n:
        raise _InputError(
            {"error": f"{name} needs {n} coordinates, got {len(v)}"})


def _grading_or_fail(p: StandardPentad):
    gres = grading_element(p)
    if gres.status != "found":
        raise _InputError({"error": f"grading element {gres.status}"})
    return gres.element


def cmd_check(args) -> int:
    p = _load_pentad(args)
    rep = check_standard(p)
    _emit(_report_json(rep))
    return 0 if rep.ok else 1


def cmd_phi(args) -> int:
    p = _validated_pentad(args)
    _require_length("--v", args.v, p.module_dim)
    _require_length("--dual", args.dual, p.module_dim)
    _emit({"value": vector_to_json(p.phi.apply(args.v, args.dual))})
    return 0


def cmd_grading_element(args) -> int:
    p = _validated_pentad(args)
    gres = grading_element(p)
    _emit({
        "status": gres.status,
        "element": None if gres.element is None else vector_to_json(gres.element.coords),
        "solution_space": [vector_to_json(v) for v in gres.solution_space],
    })
    return 0


def _search_json(search) -> dict:
    """The generic-point search fields that generic-point and sl2 both print."""
    return {"status": search.status, "rank": search.rank, "needed": search.needed,
            "attempts_used": search.attempts_used, "seed": search.seed}


def cmd_generic_point(args) -> int:
    from .preh import find_generic
    p = _sampled_pentad(args)
    search = find_generic(p, attempts=args.attempts, seed=args.seed)
    _emit({**_search_json(search), "reason": search.reason,
           "x": None if search.x is None else vector_to_json(search.x)})
    return 0


def cmd_sl2(args) -> int:
    from .preh import find_generic, sl2_partner
    p = _sampled_pentad(args)
    h = _grading_or_fail(p)
    out = {"h0": vector_to_json(h.coords), "search": None,
           "status": None, "x": None, "y": None, "kernel": []}
    if args.x is not None:
        _require_length("--x", args.x, p.module_dim)
        x, res = args.x, sl2_partner(p, h, args.x)
    else:
        search = find_generic(p, attempts=args.attempts, seed=args.seed, h=h)
        out["search"] = _search_json(search)
        if not search.found:
            out["status"] = "no_generic_point"
            _emit(out)
            return 0
        x, res = search.x, search.partner
    out["status"] = res.status
    out["x"] = vector_to_json(x)
    out["y"] = None if res.y is None else vector_to_json(res.y)
    out["kernel"] = [vector_to_json(v) for v in res.kernel]
    _emit(out)
    return 0


def cmd_regularity(args) -> int:
    from .preh import GradingElementError, ScalarCenterError, decide_regularity, verify_certificate
    p = _sampled_pentad(args)
    try:
        verdict = decide_regularity(p, attempts=args.attempts, seed=args.seed)
    except (ScalarCenterError, GradingElementError) as exc:
        raise _InputError({"error": str(exc)}) from exc
    cert = verdict_to_json(verdict, p)
    if args.verify_certificate:
        # Replay through the serialized form so the check covers the
        # certificate as written, not the in-memory object.
        replay = verdict_from_json(json.loads(dumps(cert)))
        cert["verified"] = verify_certificate(p, replay)
    _emit(cert)
    return 0


def cmd_graded_dims(args) -> int:
    from .graded import check_grading, check_minimality, extend
    if args.max_degree < 1:
        raise _InputError({"error": "--max-degree must be at least 1"})
    if args.max_degree > 10000:  # the dims document lists every degree up to the bound
        raise _InputError({"error": "--max-degree must be at most 10000"})
    p = _validated_pentad(args)
    g = extend(p, args.max_degree)
    gres = grading_element(p)
    grading_checked = gres.status == "found" and check_grading(g, gres.element)
    _emit({
        "dims": {str(k): g.dim(k) for k in range(-args.max_degree, args.max_degree + 1)},
        "minimal": check_minimality(g),
        "grading_checked": grading_checked,
    })
    return 0


def cmd_catalog(args) -> int:
    from .catalog import catalog
    entries = []
    for entry in catalog():
        p = entry.build()
        entries.append({
            "name": entry.name,
            "parameters": list(entry.parameters),
            "description": entry.description,
            "algebra_dim": p.algebra.dim,
            "module_dim": p.module_dim,
        })
    _emit({"entries": entries})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentads",
        description="Exact computations on standard pentads.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, needs_input: bool = True):
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        cmd.set_defaults(handler=handler)
        if needs_input:
            src = cmd.add_mutually_exclusive_group(required=True)
            src.add_argument("--pentad", metavar="FILE",
                             help="JSON pentad description file")
            src.add_argument("--example", metavar="NAME",
                             help="catalog entry, e.g. matrix_space_example(2)")
        return cmd

    def sampling_flags(cmd) -> None:
        cmd.add_argument("--seed", type=int, default=0,
                         help="RNG seed for the generic-point search")
        cmd.add_argument("--attempts", type=int, default=64,
                         help="sample budget for the generic-point search")

    command("check", cmd_check, "validate the pentad axioms")

    cmd = command("phi", cmd_phi, "evaluate the moment-type map on a vector pair")
    cmd.add_argument("--v", type=_vector_arg, required=True, metavar="VEC",
                     help="module vector, comma-separated rationals")
    cmd.add_argument("--dual", type=_vector_arg, required=True, metavar="VEC",
                     help="dual vector, comma-separated rationals")

    command("grading-element", cmd_grading_element,
            "solve for the element grading the construction")

    cmd = command("generic-point", cmd_generic_point,
                  "search for a module vector with surjective dual bracket")
    sampling_flags(cmd)

    cmd = command("sl2", cmd_sl2, "solve the partner system at a generic point")
    cmd.add_argument("--x", type=_vector_arg, metavar="VEC",
                     help="module vector to use instead of searching")
    sampling_flags(cmd)

    cmd = command("regularity", cmd_regularity,
                  "decide regularity and print the certificate")
    sampling_flags(cmd)
    cmd.add_argument("--verify-certificate", action="store_true",
                     help="replay the certificate and report agreement")

    cmd = command("graded-dims", cmd_graded_dims,
                  "component dimensions of the graded extension")
    cmd.add_argument("--max-degree", type=int, default=3, metavar="N",
                     help="truncation bound (default 3)")

    command("catalog", cmd_catalog, "list the built-in examples",
            needs_input=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(dumps(exc.report))
        return 1


if __name__ == "__main__":
    sys.exit(main())
