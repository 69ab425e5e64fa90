"""JSON encodings round-trip exactly and reject anything inexact."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentads.catalog import catalog, resolve
from pentads.exact_linalg import Matrix, qnorm, qof
from pentads.lie import NotClosedError, classical_basis, family, trace_form
from pentads.pentad import Representation, StandardPentad, box_tensor, dual_representation
from pentads.preh import RegularityVerdict, decide_regularity
from pentads.serialize import (
    MAX_ATTEMPTS,
    SerializationError,
    algebra_from_json,
    algebra_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    pentad_from_json,
    pentad_to_json,
    scalar_from_json,
    vector_from_json,
    vector_to_json,
    verdict_from_json,
    verdict_to_json,
)

from oracles import dense_matrix_from_json, dense_matrix_to_json, display_name

ENTRY_NAMES = [display_name(e) for e in catalog()]

# One mistyped field each, laid over a valid Regular certificate.
MISTYPED_CERTIFICATE_FIELDS = {
    "outcome lowercase": {"outcome": "regular"},
    "outcome number": {"outcome": 1},
    "seed string": {"seed": "x"},
    "seed bool": {"seed": True},
    "seed float": {"seed": 0.0},
    "attempts string": {"attempts": "many"},
    "attempts bool": {"attempts": False},
    "ranks scalar": {"ranks": {"dual_partner_injectivity": 5}},
    "ranks single": {"ranks": {"dual_partner_injectivity": [3]}},
    "ranks string entry": {"ranks": {"dual_partner_injectivity": [3, "3"]}},
    "ranks bool entry": {"ranks": {"dual_partner_injectivity": [True, 1]}},
    "witness vector string": {"witness": {"clause": "module_partner_kernel", "vector": "1,0,0"}},
    "witness vector number": {"witness": {"clause": "module_partner_kernel", "vector": 0}},
    "witness bool": {"witness": {"reason": "r", "best_rank": False, "needed": 5, "attempts": 0}},
}


def in_scalar_grammar(text):
    """text is an optional sign, ASCII digits, and optionally a slash and
    more ASCII digits."""
    body = text[1:] if text[:1] in ("+", "-") else text
    parts = body.split("/")
    return len(parts) <= 2 and all(p and all(c in "0123456789" for c in p) for p in parts)


def reload(obj):
    """Push a JSON-ready dict through actual text and back."""
    return json.loads(dumps(obj))


class TestScalars:
    def test_accepts_strings_and_ints(self):
        assert scalar_from_json("3/4") == Fraction(3, 4)
        assert scalar_from_json("-7") == -7
        assert scalar_from_json(5) == 5

    @pytest.mark.parametrize("bad", [1.5, True, None, [1], "3/0", "x", ""])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(SerializationError):
            scalar_from_json(bad)

    @given(st.one_of(
        st.integers().map(str),
        st.from_regex(r"\A\s?[+-]{0,2}[0-9_]{0,7}([./][0-9_]{0,3})?([eE][+-]?[0-9]{1,2})?\s?\Z"),
        st.text(alphabet="0123456789-+_ /.eE\t\n\u00a0\u0663\u00b2\uff10", max_size=10)))
    @example("")
    @example("-0")
    @example("007")
    @example("+3")
    @example("+1/2")
    @example("1/0")
    @example("1" * 5000)
    @example("-" + "1" * 4300)
    @example("1e10000000")
    @example("1_0")
    @example("3 / 4")
    @example(" 3")
    @example("\u0663")
    def test_parsing_matches_fraction(self, text):
        # Inside the ASCII grammar [+-]?[0-9]+(/[0-9]+)? a string reads as
        # Fraction reads it, with the same value and type, or fails as it
        # fails (a zero denominator, more digits than int() converts);
        # outside it is malformed, whatever Fraction would make of it.
        if not in_scalar_grammar(text):
            with pytest.raises(ValueError, match="malformed rational literal"):
                qof(text)
            with pytest.raises(SerializationError, match="malformed rational literal"):
                scalar_from_json(text)
            return
        try:
            old = qnorm(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                qof(text)
            with pytest.raises(SerializationError):
                scalar_from_json(text)
            return
        for new in (qof(text), scalar_from_json(text)):
            assert new == old and type(new) is type(old)

    def test_vector_round_trip(self):
        v = (Fraction(1, 3), -2, 0)
        assert vector_from_json(vector_to_json(v)) == v

    def test_vector_must_be_array(self):
        with pytest.raises(SerializationError):
            vector_from_json("1,2")


class TestMatrices:
    def test_round_trip(self):
        m = Matrix([[1, Fraction(-1, 2)], [0, 3]])
        assert matrix_from_json(reload(matrix_to_json(m))) == m

    @pytest.mark.parametrize("bad", [[], [[1], [2, 3]], [["1"], "x"], "nope"])
    def test_rejects_non_rectangular(self, bad):
        with pytest.raises(SerializationError):
            matrix_from_json(bad)


# Cells of a JSON matrix: zeros in every spelling, scalars the reader
# rejects, and exact values.
json_cells = st.one_of(
    st.sampled_from(["0", "-0", "0/7", 0, True, False, 1.5, "1/0", "x", None, [], "", "+3"]),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).map(str),
    st.integers(min_value=-9, max_value=9).map(str))


@st.composite
def json_grids(draw):
    """Rows of one width, with one row's length changed now and then."""
    width = draw(st.integers(min_value=0, max_value=4))
    rows = draw(st.lists(st.lists(json_cells, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        r = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[r] = draw(st.lists(json_cells, max_size=5))
    return rows


def read_outcome(reader, obj):
    """repr of the Matrix a reader returns, or the text of its error."""
    try:
        return repr(reader(obj))
    except SerializationError as exc:
        return f"SerializationError: {exc}"


class TestMatricesMatchDense:
    """The reader builds nonzeros directly and the writer fills "0" from
    them; the cell-by-cell reader and writer of oracles.py are the
    reference."""

    @given(json_grids())
    def test_reader_matches_dense(self, grid):
        assert read_outcome(matrix_from_json, grid) == read_outcome(dense_matrix_from_json, grid)

    @given(json_grids())
    def test_writer_matches_dense(self, grid):
        try:
            m = dense_matrix_from_json(grid)
        except SerializationError:
            return
        assert matrix_to_json(m) == dense_matrix_to_json(m)

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_catalog_matrices_match_dense(self, name):
        doc = reload(pentad_to_json(resolve(name).build()))
        for obj in doc["action"] + doc["dual_action"] + [doc["pairing"], doc["form"]]:
            m = matrix_from_json(obj)
            assert repr(m) == repr(dense_matrix_from_json(obj))
            assert matrix_to_json(m) == dense_matrix_to_json(m) == obj


class TestAlgebraFiles:
    def test_round_trip(self):
        alg = family("gl", 2)
        assert algebra_from_json(reload(algebra_to_json(alg))) == alg

    def test_missing_key(self):
        with pytest.raises(SerializationError, match="missing keys: basis"):
            algebra_from_json({"ambient_size": 2})

    def test_unknown_key(self):
        with pytest.raises(SerializationError, match="unknown keys"):
            algebra_from_json({"ambient_size": 1, "basis": [[["1"]]],
                               "extra": 1})

    def test_bad_size(self):
        with pytest.raises(SerializationError, match="positive integer"):
            algebra_from_json({"ambient_size": 0, "basis": [[["1"]]]})

    def test_closure_still_enforced(self):
        # A single nilpotent generator brackets to zero with itself, so this
        # one passes; two that do not close must still be rejected.
        e = [["0", "1"], ["0", "0"]]
        f = [["0", "0"], ["1", "0"]]
        with pytest.raises(NotClosedError):
            algebra_from_json({"ambient_size": 2, "basis": [e, f]})


class TestPentadFiles:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_round_trip_is_identity(self, name):
        p = resolve(name).build()
        loaded = pentad_from_json(reload(pentad_to_json(p)))
        assert loaded == p
        assert loaded.algebra is loaded.rep.algebra

    def test_defaults_fill_in(self):
        # Omitting dual_action, pairing, and form must give the
        # contragredient action, the identity pairing, and the trace form.
        p = resolve("gl2_trace").build()
        obj = pentad_to_json(p)
        minimal = {"algebra": obj["algebra"], "action": obj["action"]}
        assert pentad_from_json(reload(minimal)) == p

    def test_unknown_key_rejected(self):
        obj = pentad_to_json(resolve("gl1_scalar").build())
        obj["extra"] = []
        with pytest.raises(SerializationError, match="unknown keys: extra"):
            pentad_from_json(obj)

    def test_action_must_be_array(self):
        obj = pentad_to_json(resolve("gl1_scalar").build())
        obj["action"] = "nope"
        with pytest.raises(SerializationError, match="array of matrices"):
            pentad_from_json(obj)

    def test_missing_algebra(self):
        with pytest.raises(SerializationError, match="missing keys: algebra"):
            pentad_from_json({"action": []})

    @pytest.mark.parametrize("change, message", [
        ({"algebra": {"ambient_size": 1, "basis": []}},
         "basis must be a non-empty array of matrices"),
        ({"dual_action": "x"}, "dual_action must be an array of matrices"),
    ], ids=["empty basis", "dual_action string"])
    def test_malformed_part_rejected(self, change, message):
        obj = {**pentad_to_json(resolve("gl1_scalar").build()), **change}
        with pytest.raises(SerializationError) as exc:
            pentad_from_json(reload(obj))
        assert str(exc.value) == message


class TestCertificates:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_round_trip_is_identity(self, name):
        p = resolve(name).build()
        v = decide_regularity(p)
        back = verdict_from_json(reload(verdict_to_json(v, p)))
        # a record is a tuple, so == alone would accept a bare tuple too
        assert type(back) is RegularityVerdict and back == v

    def test_inconclusive_round_trip(self):
        alg = family("gl", 1)
        rep = Representation(alg, (Matrix.identity(5),))
        p = StandardPentad(rep, dual_representation(rep), trace_form(alg))
        v = decide_regularity(p)
        assert v.outcome == "Inconclusive"
        assert verdict_from_json(reload(verdict_to_json(v, p))) == v

    @pytest.mark.parametrize("attempts", [-1, MAX_ATTEMPTS + 1, 10 ** 9])
    def test_attempts_outside_the_cli_cap_rejected(self, attempts):
        # gl(1) + so(5) on C^5 (x) C^2 (d = 11, m = 10) has no generic point,
        # so its certificate is Inconclusive and verify_certificate would
        # replay every attempt it names: 10^9 of them is days of sampling.
        rep = box_tensor([classical_basis("gl", 1), classical_basis("so", 5), (2, [])])
        p = StandardPentad(rep, dual_representation(rep), trace_form(rep.algebra))
        start = time.perf_counter()
        cert = reload(verdict_to_json(decide_regularity(p), p))
        assert cert["outcome"] == "Inconclusive"
        assert verdict_from_json({**cert, "attempts": MAX_ATTEMPTS}).attempts == MAX_ATTEMPTS
        with pytest.raises(SerializationError, match="attempts must be between 0 and 10000"):
            verdict_from_json({**cert, "attempts": attempts})
        assert time.perf_counter() - start < 1

    def test_required_keys_present(self):
        p = resolve("gl1_scalar").build()
        doc = verdict_to_json(decide_regularity(p), p)
        assert {"outcome", "H0", "X", "Y", "ranks", "witness",
                "seed", "form"} <= set(doc)

    def test_form_descriptor(self):
        trace = resolve("gl2_trace").build()
        scaled = resolve("gl2_standard").build()
        assert verdict_to_json(decide_regularity(trace), trace)["form"] == "trace"
        form = verdict_to_json(decide_regularity(scaled), scaled)["form"]
        assert form == matrix_to_json(scaled.form)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0)])
    def test_form_off_by_one_entry_in_one_direction(self, i, j):
        # The trace form with one off-diagonal entry changed and its mirror
        # entry left alone is not the trace form.
        p = resolve("gl2_trace").build()
        rows = [list(row) for row in trace_form(p.algebra).entries]
        rows[i][j] += 1
        bent = StandardPentad(p.rep, p.dual, Matrix(tuple(map(tuple, rows))))
        verdict = decide_regularity(p)
        assert verdict_to_json(verdict, p)["form"] == "trace"
        assert verdict_to_json(verdict, bent)["form"] == matrix_to_json(bent.form)

    def test_witness_vector_restored_as_tuple(self):
        p = resolve("matrix_space_example(2)").build()
        v = decide_regularity(p)
        back = verdict_from_json(reload(verdict_to_json(v, p)))
        assert back.witness["vector"] == v.witness["vector"]
        assert isinstance(back.witness["vector"], tuple)

    @pytest.mark.parametrize("case", sorted(MISTYPED_CERTIFICATE_FIELDS))
    def test_mistyped_field_rejected(self, case):
        p = resolve("gl1_so_vector(3)").build()
        cert = reload(verdict_to_json(decide_regularity(p), p))
        assert cert["outcome"] == "Regular"
        with pytest.raises(SerializationError):
            verdict_from_json({**cert, **MISTYPED_CERTIFICATE_FIELDS[case]})

    def test_witness_must_be_object_or_null(self):
        p = resolve("gl1_so_vector(3)").build()
        cert = reload(verdict_to_json(decide_regularity(p), p))
        with pytest.raises(SerializationError) as exc:
            verdict_from_json({**cert, "witness": [1]})
        assert str(exc.value) == "witness must be an object or null"

    def test_bad_certificate_shape(self):
        with pytest.raises(SerializationError, match="missing keys"):
            verdict_from_json({"outcome": "Regular"})


class TestDumps:
    def test_sorted_and_stable(self):
        obj = {"b": 1, "a": [{"z": "1/2", "y": 0}]}
        text = dumps(obj)
        assert text.index('"a"') < text.index('"b"')
        assert dumps(json.loads(text)) == text


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(min_value=-10 ** 40, max_value=10 ** 40), st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.lists(st.text()), st.dictionaries(st.text(), inner)),
    max_leaves=40)
# values json writes through its own rules (floats, non-str keys, a str
# subclass) or refuses (sets, bytes, Fractions, keys of mixed types)
odd_values = st.one_of(
    st.floats(allow_nan=True), st.dictionaries(st.integers(), json_scalars, max_size=3),
    st.dictionaries(st.one_of(st.integers(), st.text(max_size=2)), json_scalars, max_size=3),
    st.sets(st.integers(), max_size=2), st.binary(max_size=3),
    st.fractions(), st.text().map(type("Text", (str,), {})))


def canonical(obj):
    """json.dumps(obj, indent=2, sort_keys=True), or the type of what it raises."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True)
    except Exception as exc:  # the reference outcome, whatever it is
        return type(exc)


def written(obj):
    try:
        return dumps(obj)
    except Exception as exc:
        return type(exc)


class TestDumpsDifferential:
    """dumps writes exactly what json.dumps(obj, indent=2, sort_keys=True)
    writes, and raises the same exception type where it raises."""

    @given(json_values)
    @settings(max_examples=300)
    @example("\u00e9\u2603\x00\n\"\\\ud800")
    @example({"": [], "b": {}, "a": [[], {}, ()]})
    @example([True, False, None, 0, -1, 10 ** 60])
    def test_json_values(self, obj):
        assert dumps(obj) == canonical(obj)

    @given(st.recursive(odd_values, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)),
        max_leaves=6))
    @settings(max_examples=200)
    def test_other_values(self, obj):
        assert written(obj) == canonical(obj)

    def test_cycles_and_huge_ints(self):
        loop = []
        loop.append(loop)
        cycle = {}
        cycle["a"] = [cycle]
        for obj in (loop, cycle, [10 ** 5000]):
            assert written(obj) == canonical(obj)
            assert isinstance(written(obj), type)

    @pytest.mark.parametrize("spec", ["gl1_so_vector(5)", "matrix_space_example(2)"])
    def test_pentad_files(self, spec):
        obj = pentad_to_json(resolve(spec).build())
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
