"""Exit codes, JSON schemas, and byte stability of the command line."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pentads
from pentads import cli
from pentads.catalog import catalog, resolve
from pentads.exact_linalg import Matrix, qstr
from pentads.lie import direct_sum, family, trace_form
from pentads.pentad import Representation, StandardPentad, dual_representation
from pentads.preh import decide_regularity
from pentads.serialize import dumps, pentad_to_json

from oracles import display_name

ENTRY_NAMES = [display_name(e) for e in catalog()]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def run_raw(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_process(*argv):
    """The command run in a fresh interpreter, as a user runs it."""
    src = str(Path(pentads.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pentads.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def write_json(tmp_path, obj, name="pentad.json"):
    path = tmp_path / name
    path.write_text(dumps(obj), encoding="utf-8")
    return str(path)


def write_pentad(tmp_path, p, name="pentad.json"):
    return write_json(tmp_path, pentad_to_json(p), name)


def sl2_standard_pentad():
    """Traceless algebra: no grading element, scalar-center check fails."""
    alg = family("sl", 2)
    rep = Representation(alg, alg.basis)
    return StandardPentad(rep, dual_representation(rep), trace_form(alg))


def scalar_pentad(n):
    alg = family("gl", 1)
    rep = Representation(alg, (Matrix.identity(n),))
    return StandardPentad(rep, dual_representation(rep), trace_form(alg))


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["regularity"],
        ["phi", "--example", "gl1_scalar"],
        ["phi", "--example", "gl1_scalar", "--v", "zzz", "--dual", "1"],
        ["regularity", "--example", "a", "--pentad", "b"],
        ["no-such-command"],
    ])
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


class TestInvalidInput:
    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json{", encoding="utf-8")
        code, doc = run(capsys, "check", "--pentad", str(path))
        assert code == 1
        assert "not valid JSON" in doc["error"]

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",
        # valid JSON but for one Latin-1 byte inside a string
        dumps(pentad_to_json(resolve("gl1_scalar").build())).encode().replace(
            b'"1"', b'"1\xe9"', 1),
    ], ids=["utf16-bom", "stray-byte"])
    def test_file_not_utf8(self, capsys, tmp_path, content):
        path = tmp_path / "latin1.json"
        path.write_bytes(content)
        code, doc = run(capsys, "check", "--pentad", str(path))
        assert code == 1
        assert doc["error"].startswith(f"{path} is not valid UTF-8: ")

    def test_missing_file(self, capsys, tmp_path):
        code, doc = run(capsys, "check", "--pentad", str(tmp_path / "no.json"))
        assert code == 1
        assert "cannot read" in doc["error"]

    def test_unknown_example(self, capsys):
        code, doc = run(capsys, "regularity", "--example", "nonsense")
        assert code == 1
        assert "unknown catalog entry" in doc["error"]

    def test_axiom_failure_report(self, capsys, tmp_path):
        obj = pentad_to_json(resolve("gl2_trace").build())
        obj["form"][0][1] = "5"  # break symmetry of the gram matrix
        path = tmp_path / "asym.json"
        path.write_text(dumps(obj), encoding="utf-8")
        code, doc = run(capsys, "check", "--pentad", str(path))
        assert code == 1
        assert doc["ok"] is False
        assert "form_symmetric" in {f["axiom"] for f in doc["failures"]}
        # Every other command refuses the same input with the same report.
        code2, doc2 = run(capsys, "regularity", "--pentad", str(path))
        assert (code2, doc2) == (code, doc)

    def test_wrong_vector_length(self, capsys):
        code, doc = run(capsys, "phi", "--example", "gl1_scalar",
                        "--v", "1,2", "--dual", "1")
        assert code == 1
        assert "--v needs 1 coordinates" in doc["error"]

    def test_pentad_file_not_an_object(self, capsys, tmp_path):
        code, doc = run(capsys, "check", "--pentad", write_json(tmp_path, []))
        assert code == 1
        assert doc == {"error": "a pentad description must be a JSON object"}

    def test_regularity_without_scalar_center(self, capsys, tmp_path):
        path = write_pentad(tmp_path, sl2_standard_pentad())
        code, doc = run(capsys, "regularity", "--pentad", str(path))
        assert code == 1
        assert "error" in doc

    def test_singular_pairing_without_dual_action(self, tmp_path):
        # The contragredient dual needs the inverse pairing; a singular one
        # must be a load error, not a traceback out of the inversion.
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"algebra": {"ambient_size": 1, "basis": [[["1"]]]},
                                    "action": [[["1"]]], "pairing": [["0"]]}),
                        encoding="utf-8")
        proc = run_process("regularity", "--pentad", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "pairing is singular" in json.loads(proc.stdout)["error"]

    MALFORMED_FILES = {
        # past the JSON decoder's recursion limit
        "deep": lambda path: path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8"),
        # past Python's limit on the digits of an int literal
        "long-int": lambda path: path.write_text('{"algebra": ' + "9" * 5000 + "}",
                                                 encoding="utf-8"),
        "not-utf8": lambda path: path.write_bytes(b'{"algebra": "\xff"}'),
        "not-json": lambda path: path.write_text("not json{", encoding="utf-8"),
        "missing": lambda path: None,
        "directory": lambda path: path.mkdir(),
    }
    PENTAD_COMMANDS = [["check"], ["phi", "--v", "1", "--dual", "1"], ["grading-element"],
                       ["generic-point"], ["sl2"], ["regularity"], ["graded-dims"]]

    @pytest.mark.parametrize("kind", MALFORMED_FILES)
    @pytest.mark.parametrize("command", PENTAD_COMMANDS, ids=lambda c: c[0])
    def test_malformed_file_sweep(self, tmp_path, command, kind):
        path = tmp_path / "pentad.json"
        self.MALFORMED_FILES[kind](path)
        proc = run_process(command[0], "--pentad", str(path), *command[1:])
        assert (proc.returncode, proc.stderr) == (1, "")
        assert list(json.loads(proc.stdout)) == ["error"]

    def test_unreadable_catalog_parameter(self):
        proc = run_process("check", "--example", f"gl1_so_vector({'9' * 5000})")
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["error"].startswith(
            "cannot read the parameters of 'gl1_so_vector': ")
        # a parameter at the limit still reads, and the bound refuses it
        proc = run_process("check", "--example", f"gl1_so_vector({'9' * 4300})")
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout) == {"error": "gl1_so_vector needs m <= 96"}

    @pytest.mark.parametrize("command", ["check", "regularity"])
    def test_non_homomorphic_action(self, tmp_path, command):
        # so(3)'s first two action matrices swapped in gl1_so_vector(3): the
        # file fails to load at the one homomorphism check, in Representation.
        obj = pentad_to_json(resolve("gl1_so_vector(3)").build())
        obj["action"][1], obj["action"][2] = obj["action"][2], obj["action"][1]
        path = tmp_path / "swapped.json"
        path.write_text(dumps(obj), encoding="utf-8")
        proc = run_process(command, "--pentad", str(path))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout == ('{\n  "error": "action of [b_1, b_2] differs from the '
                               'commutator of the actions"\n}\n')

    def test_bool_ambient_size(self, capsys, tmp_path):
        # gl1_scalar has ambient size 1, which a JSON true must not pass for
        obj = pentad_to_json(resolve("gl1_scalar").build())
        obj["algebra"]["ambient_size"] = True
        code, doc = run(capsys, "check", "--pentad", write_json(tmp_path, obj))
        assert code == 1
        assert doc == AMBIENT_SIZE_ERROR

    def test_exponent_literal_is_rejected_at_once(self, capsys, tmp_path):
        # Fraction would read "1e10000000" as 10**10000000, seconds of work
        # for one 10-byte cell; the scalar grammar has no exponent
        obj = pentad_to_json(resolve("gl1_scalar").build())
        obj["action"][0][0][0] = "1e10000000"
        path = write_json(tmp_path, obj)
        start = time.perf_counter()
        code, doc = run(capsys, "check", "--pentad", path)
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert doc == {"error": "malformed rational literal: '1e10000000'"}

    def test_max_degree_bound(self, capsys):
        code, doc = run(capsys, "graded-dims", "--example", "gl1_scalar",
                        "--max-degree", "0")
        assert code == 1
        assert "max-degree" in doc["error"]

    @pytest.mark.parametrize("bound", ["10001", str(10 ** 20)])
    def test_max_degree_cap(self, capsys, bound):
        # the dims document lists every degree up to the bound, so a huge
        # bound would run unbounded; it is rejected before any work
        argv = ("graded-dims", "--example", "gl1_scalar", "--max-degree", bound)
        start = time.perf_counter()
        code, doc = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, doc) == (1, {"error": "--max-degree must be at most 10000"})
        proc = run_process(*argv)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout) == doc

    @pytest.mark.parametrize("command", ["generic-point", "sl2", "regularity"])
    def test_negative_attempts(self, capsys, command):
        # a negative sample budget is rejected before any pentad is loaded
        # (an unknown entry is not reached), with or without an explicit --x
        # or a certificate to verify
        extra = {"sl2": ["--x", "1"], "regularity": ["--verify-certificate"]}
        for example in ("gl1_scalar", "no_such_entry"):
            for flags in ([], extra.get(command, [])):
                code, out = run_raw(capsys, command, "--example", example,
                                    "--attempts", "-1", *flags)
                assert code == 1
                assert out == dumps({"error": "--attempts must be non-negative"}) + "\n"
        code, _ = run(capsys, command, "--example", "gl1_scalar", "--attempts", "0")
        assert code == 0

    @pytest.mark.parametrize("bound", ["10001", str(10 ** 20)])
    @pytest.mark.parametrize("command", ["generic-point", "sl2", "regularity"])
    def test_attempts_cap(self, capsys, command, bound):
        # a pentad with no generic point samples every attempt, so a huge
        # budget would run unbounded; it is rejected before any load (an
        # unknown entry is not reached)
        for example in ("gl1_scalar", "no_such_entry"):
            argv = (command, "--example", example, "--attempts", bound)
            start = time.perf_counter()
            code, doc = run(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert (code, doc) == (1, {"error": "--attempts must be at most 10000"})
        proc = run_process(*argv)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout) == doc
        code, _ = run(capsys, command, "--example", "gl1_scalar", "--attempts", "10000")
        assert code == 0


def _set(path, value):
    """A mutation that puts value at the nested index path of the file."""
    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return mutate


def _not_closed(obj):
    # b_1 plus the ambient unit E_01: in both catalog files the span is
    # then no longer closed under brackets.
    obj["algebra"]["basis"][1][0][1] = qstr(int(obj["algebra"]["basis"][1][0][1]) + 1)


def _singular_pairing(obj):
    obj["pairing"][0] = ["0"] * len(obj["pairing"][0])


# name -> in-place edit of a pentad file's JSON object
MUTATIONS = {
    "drop_dual_action": lambda obj: obj["dual_action"].pop(),
    "duplicate_dual_action": lambda obj: obj["dual_action"].append(obj["dual_action"][0]),
    "drop_action": lambda obj: obj["action"].pop(),
    "duplicate_action": lambda obj: obj["action"].append(obj["action"][0]),
    "shrink_action": _set(("action", 1), [["1"]]),
    "truncate_form_row": lambda obj: obj["form"][0].pop(),
    "singular_pairing": _singular_pairing,
    "float_scalar": _set(("action", 0, 0, 0), 1.0),
    "bool_scalar": _set(("form", 0, 0), True),
    "zero_denominator": _set(("pairing", 0, 0), "1/0"),
    "zero_ambient_size": _set(("algebra", "ambient_size"), 0),
    "bool_ambient_size": _set(("algebra", "ambient_size"), True),
    "basis_not_closed": _not_closed,
}
DUAL_COUNT_ERROR = {"error": "one dual action matrix per basis element is required"}
AMBIENT_SIZE_ERROR = {"error": "ambient_size must be a positive integer"}
SWEEP_FILES = ["gl1_so_vector(3)", "matrix_space_example(2)"]
SWEEP_COMMANDS = [["check"], ["grading-element"], ["generic-point"], ["sl2"],
                  ["regularity", "--verify-certificate"], ["graded-dims", "--max-degree", "2"],
                  ["phi"]]


class TestMutationSweep:
    """Named mutations of catalog pentad files, run through every command
    that reads a pentad: each must exit 1 with one JSON document saying why,
    and no exception may escape."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", SWEEP_FILES)
    def test_every_command_rejects(self, capsys, tmp_path, name, mutation):
        p = resolve(name).build()
        obj = pentad_to_json(p)
        MUTATIONS[mutation](obj)
        path = write_json(tmp_path, obj)
        ones = ",".join(["1"] * p.module_dim)
        for command in SWEEP_COMMANDS:
            extra = ["--v", ones, "--dual", ones] if command == ["phi"] else []
            code, out = run_raw(capsys, command[0], "--pentad", path, *command[1:], *extra)
            doc = json.loads(out)
            assert code == 1, (command, doc)
            assert "error" in doc or doc.get("failures"), (command, doc)
            if mutation.endswith("dual_action"):
                assert doc == DUAL_COUNT_ERROR, command
            if mutation.endswith("ambient_size"):
                assert doc == AMBIENT_SIZE_ERROR, command


def _paths(obj, path=()):
    """Every nested index path of a JSON value, the root's own () included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# values a replaced entry may take: other scalars, wrong JSON types, shapes
REPLACEMENTS = ["0", "1", "-1", "1/2", "1/0", "x", 0, 2, -1, True, None, 1.5,
                [], {}, ["1"], [["1"]], [["0", "1"], ["1", "0"]]]


def random_mutation(rng, obj):
    """Apply one random edit to obj in place and say what it was: replace a
    value, delete a key, duplicate or drop a list element, or transpose a
    matrix (a list of equally long lists)."""
    paths = list(_paths(obj))
    while True:
        kind = rng.choice(("replace", "delete", "duplicate", "drop", "transpose"))
        if kind == "replace":
            path = rng.choice(paths[1:])
            value = rng.choice(REPLACEMENTS)
            _at(obj, path[:-1])[path[-1]] = value
            return f"replace {path} with {value!r}"
        if kind == "delete":
            dicts = [p for p in paths if isinstance(_at(obj, p), dict) and _at(obj, p)]
            path = rng.choice(dicts)
            key = rng.choice(sorted(_at(obj, path)))
            del _at(obj, path)[key]
            return f"delete {path + (key,)}"
        lists = [p for p in paths if isinstance(_at(obj, p), list) and _at(obj, p)]
        if kind in ("duplicate", "drop"):
            path = rng.choice(lists)
            target = _at(obj, path)
            i = rng.randrange(len(target))
            if kind == "duplicate":
                target.insert(i, json.loads(json.dumps(target[i])))
            else:
                del target[i]
            return f"{kind} {path + (i,)}"
        matrices = [p for p in lists if all(isinstance(r, list) for r in _at(obj, p))
                    and len({len(r) for r in _at(obj, p)}) == 1]
        if matrices:
            path = rng.choice(matrices)
            _at(obj, path[:-1])[path[-1]] = [list(col) for col in zip(*_at(obj, path))]
            return f"transpose {path}"


RANDOM_SWEEP_FILES = ["gl1_scalar", "gl2_trace", "gl1_so_vector(3)", "gl2_standard",
                      "matrix_space_example(2)"]
RANDOM_SWEEP_DOCUMENTS = 20  # per file; the seed is the file's index


class TestRandomMutationSweep:
    """Seeded random edits of catalog pentad files through the six commands
    that take only a pentad: a command may accept the edited file or reject
    it, but it must end with exit 0 or 1 and one JSON document on stdout,
    and no exception may escape."""

    @pytest.mark.parametrize("name", RANDOM_SWEEP_FILES)
    def test_every_command_answers_in_json(self, capsys, tmp_path, name):
        rng = random.Random(RANDOM_SWEEP_FILES.index(name))
        clean = pentad_to_json(resolve(name).build())
        for doc_index in range(RANDOM_SWEEP_DOCUMENTS):
            obj = json.loads(json.dumps(clean))
            what = random_mutation(rng, obj)
            path = write_json(tmp_path, obj)
            for command in SWEEP_COMMANDS:
                if command == ["phi"]:
                    continue
                code, out = run_raw(capsys, command[0], "--pentad", path, *command[1:])
                assert code in (0, 1), (doc_index, what, command, out)
                assert isinstance(json.loads(out), dict), (doc_index, what, command)


class TestCheck:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_catalog_entries_validate(self, capsys, name):
        code, doc = run(capsys, "check", "--example", name)
        assert code == 0
        assert doc["ok"] is True
        assert doc["failures"] == []


class TestPhi:
    def test_scalar(self, capsys):
        code, doc = run(capsys, "phi", "--example", "gl1_scalar",
                        "--v", "3", "--dual", "1/2")
        assert (code, doc["value"]) == (0, ["3/2"])

    def test_matches_library(self, capsys):
        p = resolve("gl2_trace").build()
        code, doc = run(capsys, "phi", "--example", "gl2_trace",
                        "--v", "1,0", "--dual", "0,1")
        assert code == 0
        assert doc["value"] == [qstr(x) for x in p.phi.apply((1, 0), (0, 1))]


class TestGradingElement:
    def test_found(self, capsys):
        code, doc = run(capsys, "grading-element", "--example", "gl1_scalar")
        assert code == 0
        assert doc == {"status": "found", "element": ["2"],
                       "solution_space": []}

    def test_absent(self, capsys, tmp_path):
        path = write_pentad(tmp_path, sl2_standard_pentad())
        code, doc = run(capsys, "grading-element", "--pentad", str(path))
        assert code == 0
        assert doc["status"] == "absent"
        assert doc["element"] is None


class TestGenericPoint:
    def test_found(self, capsys):
        code, doc = run(capsys, "generic-point", "--example", "gl1_scalar")
        assert code == 0
        assert doc["status"] == "found"
        assert doc["x"] == ["1"]
        assert (doc["rank"], doc["needed"]) == (1, 1)
        assert doc["reason"] is None

    def test_dimension_obstruction(self, capsys, tmp_path):
        path = write_pentad(tmp_path, scalar_pentad(5))
        code, doc = run(capsys, "generic-point", "--pentad", str(path))
        assert code == 0
        assert doc["status"] == "not_found"
        assert doc["x"] is None
        assert "exceeds algebra dimension" in doc["reason"]

    def test_seed_flag_recorded(self, capsys):
        code, doc = run(capsys, "generic-point", "--example", "gl1_scalar",
                        "--seed", "7", "--attempts", "3")
        assert code == 0
        assert doc["seed"] == 7

    def test_bytes_with_every_unit_vector_tried(self, capsys):
        # m = 60 < 64 attempts: all 60 unit vectors fail, the first random
        # draw is generic
        code, out = run_raw(capsys, "generic-point", "--example", "matrix_space_example(10)")
        assert code == 0
        assert json.loads(out)["attempts_used"] == 61
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "34c9153fbd831cb42855913a67dea5ced636dca000d170fe84c6d0ff516f643f")


class TestSl2:
    def test_searches_when_x_omitted(self, capsys):
        code, doc = run(capsys, "sl2", "--example", "gl1_scalar")
        assert code == 0
        assert doc["status"] == "unique"
        assert (doc["h0"], doc["x"], doc["y"]) == (["2"], ["1"], ["2"])
        assert doc["search"]["status"] == "found"

    def test_explicit_x(self, capsys):
        x = "1,0,0,0,1,0,0,0,1,0,0,0"
        code, doc = run(capsys, "sl2", "--example", "matrix_space_example(2)",
                        "--x", x)
        assert code == 0
        assert doc["status"] == "unique"
        assert doc["search"] is None
        assert doc["y"] == ["0", "0", "-1", "0", "0", "0",
                            "1", "0", "0", "0", "0", "0"]

    def test_no_partner(self, capsys):
        code, doc = run(capsys, "sl2", "--example", "gl2_trace")
        assert code == 0
        assert doc["status"] == "none"
        assert doc["y"] is None

    def test_no_generic_point(self, capsys, tmp_path):
        path = write_pentad(tmp_path, scalar_pentad(5))
        code, doc = run(capsys, "sl2", "--pentad", str(path))
        assert code == 0
        assert doc["status"] == "no_generic_point"
        assert doc["x"] is None

    def test_degenerate_grading_element(self, capsys, tmp_path):
        # gl(1) + gl(1), each acting by 1 on C^1: every h with h_0 + h_1 = 2 grades
        alg = direct_sum([(1, [Matrix.identity(1)]), (1, [Matrix.identity(1)])])
        rep = Representation(alg, (Matrix.identity(1), Matrix.identity(1)))
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        code, doc = run(capsys, "sl2", "--pentad", write_pentad(tmp_path, p))
        assert code == 1
        assert doc == {"error": "grading element degenerate"}


class TestRegularity:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_matches_library_and_verifies(self, capsys, name):
        p = resolve(name).build()
        expected = decide_regularity(p)
        code, doc = run(capsys, "regularity", "--example", name,
                        "--verify-certificate")
        assert code == 0
        assert doc["outcome"] == expected.outcome
        assert doc["verified"] is True
        assert doc["seed"] == 0

    def test_inconclusive_verifies(self, capsys, tmp_path):
        path = write_pentad(tmp_path, scalar_pentad(5))
        code, doc = run(capsys, "regularity", "--pentad", str(path),
                        "--verify-certificate")
        assert code == 0
        assert doc["outcome"] == "Inconclusive"
        assert doc["verified"] is True

    def test_negative_verdict_still_exit_0(self, capsys):
        code, doc = run(capsys, "regularity", "--example", "gl2_trace")
        assert code == 0
        assert doc["outcome"] == "NotRegular"
        assert doc["witness"] == {"clause": "no_dual_partner"}

    @pytest.mark.parametrize("n", [11, 12])
    def test_module_above_the_budget_is_decided(self, capsys, n):
        # m = 6n > 64 attempts and no unit vector is generic: half the
        # budget goes to random draws, which find a generic point
        code, doc = run(capsys, "regularity", "--example", f"matrix_space_example({n})",
                        "--verify-certificate")
        assert code == 0
        assert (doc["outcome"], doc["witness"]["clause"]) == ("NotRegular",
                                                              "module_partner_kernel")
        assert doc["verified"] is True

    def test_kernel_witness_serialized(self, capsys):
        code, doc = run(capsys, "regularity", "--example",
                        "matrix_space_example(2)")
        assert code == 0
        assert doc["witness"]["clause"] == "module_partner_kernel"
        assert any(x != "0" for x in doc["witness"]["vector"])


class TestGradedDims:
    def test_gl2_standard(self, capsys):
        code, doc = run(capsys, "graded-dims", "--example", "gl2_standard",
                        "--max-degree", "2")
        assert code == 0
        assert doc == {
            "dims": {"-2": 0, "-1": 2, "0": 4, "1": 2, "2": 0},
            "minimal": True,
            "grading_checked": True,
        }

    def test_default_degree_is_3(self, capsys):
        code, doc = run(capsys, "graded-dims", "--example", "gl2_trace")
        assert code == 0
        assert doc["dims"] == {"-3": 0, "-2": 1, "-1": 2, "0": 4,
                               "1": 2, "2": 1, "3": 0}

    def test_no_grading_element_reported(self, capsys, tmp_path):
        path = write_pentad(tmp_path, sl2_standard_pentad())
        code, doc = run(capsys, "graded-dims", "--pentad", str(path),
                        "--max-degree", "1")
        assert code == 0
        assert doc["grading_checked"] is False
        assert doc["minimal"] is True


class TestCatalogCommand:
    def test_lists_entries(self, capsys):
        code, doc = run(capsys, "catalog")
        assert code == 0
        names = [e["name"] for e in doc["entries"]]
        assert names == [e.name for e in catalog()]
        biggest = doc["entries"][-1]
        assert (biggest["algebra_dim"], biggest["module_dim"]) == (14, 12)
        assert biggest["parameters"] == [2]


class TestDeterminismAndRoundTrip:
    def test_byte_identical_across_runs(self, capsys):
        first = run_raw(capsys, "regularity", "--example",
                        "matrix_space_example(2)", "--seed", "3")
        second = run_raw(capsys, "regularity", "--example",
                         "matrix_space_example(2)", "--seed", "3")
        assert first == second

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_file_round_trip_same_verdict(self, capsys, tmp_path, name):
        path = write_pentad(tmp_path, resolve(name).build())
        from_file = run_raw(capsys, "regularity", "--pentad", path)
        from_catalog = run_raw(capsys, "regularity", "--example", name)
        assert from_file == from_catalog

    def test_file_round_trip_same_dims(self, capsys, tmp_path):
        path = write_pentad(tmp_path, resolve("gl2_trace").build())
        from_file = run_raw(capsys, "graded-dims", "--pentad", path)
        from_catalog = run_raw(capsys, "graded-dims", "--example", "gl2_trace")
        assert from_file == from_catalog


# sha256 of `pentads regularity --verify-certificate --seed 0 --example NAME`
# stdout; any change to a certificate, the verdict or its replay shows here.
PINNED_CERTIFICATES = {
    "matrix_space_example(2)": "4bacd34df37d4382a1901b9c3469f621f55ab58445e2d26dcf76ed2bc0203911",
    "matrix_space_example(3)": "648de55c075a15b7fa980e6ab8bc1b8231a9364bdf17e1be586688fd94c30e5f",
    "matrix_space_example(4)": "17cdd22fe4a5ded300fc601a750be895897750d563df3b35a15be64b12abd7b5",
    "gl1_so_vector(3)": "ef544785e620cbf754e7b26a995bceb3d44eac4f713656988964c36104768709",
    "gl1_so_vector(4)": "8368656daac984911292049a2b8d98441770c45d7d32733197d2de10de132e24",
    "gl1_so_vector(5)": "82cda3991413a74092c5fb3abb9af3153adc99fb5a43f67d798f9fc1b798495d",
    "gl1_scalar": "3f99efd3b6a9f9760d1abf04451287df06c64b43f119c0e855f4b9e7ed7cb862",
    "gl2_standard": "a3d082c1b63a3772ac5c3c236469b88cef78285c4e745ce8054b6450dc4156be",
    "gl2_trace": "9464336e159e31ebd137b1e1a212a343c2098a20fb1dbff87c12deecc73d49fb",
}


class TestPinnedCertificates:
    def test_every_parameter_free_entry_is_pinned(self):
        free = {e.name for e in catalog() if not e.parameters}
        assert free <= set(PINNED_CERTIFICATES)

    @pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
    def test_certificate_bytes(self, capsys, name):
        code, out = run_raw(capsys, "regularity", "--verify-certificate",
                            "--seed", "0", "--example", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CERTIFICATES[name]


def _identity_form(obj):
    obj["form"] = [["1" if i == j else "0" for j in range(4)] for i in range(4)]


def _asymmetric_form(obj):
    obj["form"][0][1] = "5"


# `pentads check --pentad FILE` on gl2_trace with a broken form: the failures
# it reports and the sha256 of its stdout.  The invariance witness is the
# first failing (i, j, k) in lexicographic order.
PINNED_CHECKS = {
    "identity": (_identity_form, [
        {"axiom": "form_invariant", "detail": "B([b_0,b_1],b_1) != B(b_0,[b_1,b_1])",
         "indices": [0, 1, 1]},
    ], "00ad12de48b9adf8e3088435667606b276d0fc5cc11e098c1f4866a7562213a1"),
    "asymmetric": (_asymmetric_form, [
        {"axiom": "form_symmetric", "detail": "B(b_0,b_1) = 5 but B(b_1,b_0) = 0",
         "indices": [0, 1]},
        {"axiom": "form_invariant", "detail": "B([b_0,b_0],b_1) != B(b_0,[b_0,b_1])",
         "indices": [0, 0, 1]},
    ], "4afa732f66fc0034c3e822586a4448d12141f1231ac882ac416bca83bd5ccc85"),
}


class TestPinnedCheckOutput:
    @pytest.mark.parametrize("form", sorted(PINNED_CHECKS))
    def test_check_bytes(self, capsys, tmp_path, form):
        edit, failures, digest = PINNED_CHECKS[form]
        obj = pentad_to_json(resolve("gl2_trace").build())
        edit(obj)
        path = tmp_path / "form.json"
        path.write_text(dumps(obj), encoding="utf-8")
        code, out = run_raw(capsys, "check", "--pentad", str(path))
        assert code == 1
        assert json.loads(out)["failures"] == failures
        assert hashlib.sha256(out.encode()).hexdigest() == digest
