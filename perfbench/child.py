"""Child-process entry points of the benchmark.

    child.py setup WORKDIR [EXAMPLE ...]
        cold ``import pentads``, then write each catalog example as a pentad
        file WORKDIR/<example>.json (the inputs of a workload).
    child.py cli TRACE JOB -- ARGS ...
        run ``pentads ARGS`` in this process with the tracer installed and
        write the spans to TRACE; stdout is exactly the command's stdout.
    child.py brackets EXAMPLE DEGREE COEF_SEED [TRACE JOB]
        build the graded algebra and check Jacobi and antisymmetry on every
        admissible degree triple; traced when TRACE is given.

Only the traced forms import the tracer.  Untraced CLI jobs do not come
through here at all: they run ``python3 -m pentads.cli``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys


def input_file(workdir: str, example: str) -> str:
    return os.path.join(workdir, example.replace("(", "_").replace(")", "") + ".json")


def setup(workdir: str, examples: list[str]) -> None:
    import pentads
    for example in examples:
        p = pentads.resolve(example).build()
        with open(input_file(workdir, example), "w", encoding="utf-8") as fh:
            fh.write(pentads.dumps(pentads.pentad_to_json(p)))


def degree_triples(bound: int) -> list[tuple[int, int, int]]:
    """Sorted degree triples whose pairwise and total sums stay in the bound."""
    degrees = range(-bound, bound + 1)
    return [t for t in itertools.combinations_with_replacement(degrees, 3)
            if all(abs(s) <= bound for s in (t[0] + t[1], t[1] + t[2],
                                             t[0] + t[2], sum(t)))]


def brackets(example: str, degree: int, coef_seed: int) -> dict:
    """Jacobi and antisymmetry through GradedAlgebra.bracket on random elements."""
    from pentads import GradedVector, extend, resolve
    g = extend(resolve(example).build(), degree)
    rng = random.Random(coef_seed)

    def element(k: int) -> GradedVector:
        return GradedVector(k, tuple(rng.randint(-9, 9) for _ in range(g.dim(k))))

    def add(*vs: GradedVector) -> tuple:
        return tuple(sum(xs) for xs in zip(*(v.coords for v in vs)))

    triples = [t for t in degree_triples(degree) if all(g.dim(k) for k in t)]
    digest = hashlib.sha256()
    jacobi_failures, antisymmetry_failures = [], []
    for t in triples:
        a, b, c = (element(k) for k in t)
        ab, bc, ca = g.bracket(a, b), g.bracket(b, c), g.bracket(c, a)
        jac = add(g.bracket(a, bc), g.bracket(b, ca), g.bracket(c, ab))
        if any(jac):
            jacobi_failures.append(list(t))
        for x, y, xy in ((a, b, ab), (b, c, bc), (c, a, ca)):
            if any(add(xy, g.bracket(y, x))):
                antisymmetry_failures.append([x.degree, y.degree])
        for v in (ab, bc, ca):
            digest.update(repr(v.coords).encode())
    return {
        "dims": {str(k): v for k, v in g.dims.items()},
        "triples": len(triples),
        "jacobi_failures": jacobi_failures,
        "antisymmetry_failures": antisymmetry_failures,
        "brackets_sha256": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], rest[1:])
        return 0
    if mode == "cli":
        trace_path, job = rest[0], rest[1]
        from tracer import Tracer
        tracer = Tracer(job)
        tracer.install()
        import pentads.cli
        try:
            return pentads.cli.main(rest[3:])
        finally:
            tracer.uninstall()
            tracer.dump(trace_path)
    if mode == "brackets":
        example, degree, coef_seed = rest[0], int(rest[1]), int(rest[2])
        tracer = None
        if len(rest) > 3:
            from tracer import Tracer
            tracer = Tracer(rest[4])
            tracer.install()
        try:
            out = brackets(example, degree, coef_seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.dump(rest[3])
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
