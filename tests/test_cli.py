import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ccode3d import cli, linalg, ring3d
from ccode3d.cli import canonical_json, load_spec, main, spec_from_dict, spec_to_dict

from conftest import install_wrong_z_family, per_spec_sweep_report

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
EXAMPLE1 = str(SPECS / "example1.json")
EXAMPLE2 = str(SPECS / "example2.json")
EXAMPLE3 = str(SPECS / "example3.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_idempotents_output(capsys):
    code, out = run(capsys, "idempotents", "--q", "5", "--k", "2", "--gamma", "-1")
    assert code == 0
    assert "e_0(z) = 3 + 4z" in out
    assert "e_1(z) = 3 + z" in out
    assert "signed: -2 - z" in out


def test_idempotents_second_example(capsys):
    code, out = run(capsys, "idempotents", "--q", "7", "--k", "3", "--gamma", "-1")
    assert code == 0
    for line in ("e_0(z) = 5 + 4z + 6z^2", "e_1(z) = 5 + 2z + 5z^2", "e_2(z) = 5 + z + 3z^2"):
        assert line in out


def test_idempotents_invalid_exit_2(capsys):
    code, _ = run(capsys, "idempotents", "--q", "5", "--k", "3", "--gamma", "1")
    assert code == 2


def test_factor_command(capsys):
    code, out = run(capsys, "factor", "--q", "7", "--s", "3", "--alpha", "-1")
    assert code == 0
    assert "1 + x" in out and "2 + x" in out and "4 + x" in out


@pytest.mark.parametrize("s, alpha, degrees", [("12", "6", [12]), ("11", "1", [1, 10])])
def test_factor_reads_the_degrees_from_cosets(capsys, s, alpha, degrees):
    # over F_13, x^12 - 6 is one coset and x^11 - 1 is x - 1 times a factor of
    # degree 10: at most 13 candidates are divided
    code, out = run(capsys, "factor", "--q", "13", "--s", s, "--alpha", alpha)
    assert code == 0
    # each monic factor's line ends its canonical form with the leading "x^d"
    leading = [line.split("   (signed")[0].split(" + ")[-1] for line in out.splitlines()[1:]]
    assert leading == ["x" if d == 1 else f"x^{d}" for d in degrees]


def test_factor_refuses_a_long_exponent_before_any_work(capsys, monkeypatch):
    def no_factoring(*args):
        raise AssertionError("the binomial was sized or factored")

    monkeypatch.setattr(cli, "factor_binomial", no_factoring)
    assert main(["factor", "--q", "7", "--s", "4097", "--alpha", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: exponent s is past the limit of 4096\n"


@pytest.mark.parametrize("argv,message", [
    (["factor", "--q", "5", "--s", "0", "--alpha", "1"], "exponent must be positive, got 0"),
    (["factor", "--q", "5", "--s", "-3", "--alpha", "1"], "exponent must be positive, got -3"),
    (["factor", "--q", "5", "--s", "3", "--alpha", "0"], "constant must be nonzero"),
    (["idempotents", "--q", "5", "--k", "0", "--gamma", "1"], "block length must be positive, got 0"),
    (["idempotents", "--q", "5", "--k", "5", "--gamma", "1"],
     "z^5 - 1 has repeated roots over F_5 (characteristic divides 5)"),
    (["idempotents", "--q", "65521", "--k", "65520", "--gamma", "1"],
     "idempotent family of 65520 members is past the limit of 4096"),
    # k is within the limit, but gamma has order 3: the full family has 3k members
    (["idempotents", "--q", "12289", "--k", "4096", "--gamma", "6048", "--full"],
     "idempotent family of 12288 members is past the limit of 4096"),
    # x^29 - 1: its plan, from cosets, is sized and refused before any division
    (["factor", "--q", "7", "--s", "29", "--alpha", "1"],
     "factoring x^29 - 1 over F_7 by trial division would pass the limit of 30000000 "
     "coefficient updates"),
    # plan sums of thousands of digits, which the message does not print
    (["factor", "--q", "65521", "--s", "3019", "--alpha", "1"],
     "factoring x^3019 - 1 over F_65521 by trial division would pass the limit of 30000000 "
     "coefficient updates"),
    (["factor", "--q", "65521", "--s", "4091", "--alpha", "1"],
     "factoring x^4091 - 1 over F_65521 by trial division would pass the limit of 30000000 "
     "coefficient updates"),
    # no x-modulus a spec admits is longer: refused before any coset is built
    (["factor", "--q", "7", "--s", "2000003", "--alpha", "1"], "exponent s is past the limit of 4096"),
    (["factor", "--q", "5", "--s", "5000", "--alpha", "1"], "exponent s is past the limit of 4096"),
])
def test_invalid_factor_and_idempotents_print_only_the_error(capsys, monkeypatch, argv, message):
    from ccode3d import idempotents

    def no_family(*args):
        raise AssertionError("an idempotent family was built")

    monkeypatch.setattr(idempotents, "_geometric_family", no_family)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_build_result_file(capsys, tmp_path):
    out_file = tmp_path / "result.json"
    code, _ = run(capsys, "build", "--spec", EXAMPLE1, "--out", str(out_file))
    assert code == 0
    result = json.loads(out_file.read_text())
    assert result["n"] == 8 and result["dimension"] == 4
    assert len(result["G"]) == 4 and all(len(r) == 8 for r in result["G"])
    assert len(result["generators"]) == 4
    assert result["spec"]["q"] == 5
    assert result["verdicts"]["quasi_twisted"] == {"x": True, "y": True, "z": True}


def test_spec_echo_round_trip_is_byte_identical(capsys, tmp_path):
    out_file = tmp_path / "result.json"
    run(capsys, "build", "--spec", EXAMPLE1, "--out", str(out_file))
    echo = json.loads(out_file.read_text())["spec"]
    respec = spec_from_dict(echo)
    assert canonical_json(spec_to_dict(respec)) == canonical_json(echo)
    # and feeding the echo back through a file produces the same echo again
    spec2 = tmp_path / "echo.json"
    spec2.write_text(canonical_json(echo))
    out2 = tmp_path / "result2.json"
    run(capsys, "build", "--spec", str(spec2), "--out", str(out2))
    assert json.loads(out2.read_text())["spec"] == echo


def test_selfdual_exit_codes(capsys):
    code, out = run(capsys, "selfdual", "--spec", EXAMPLE1)
    assert code == 0
    assert json.loads(out)["verdicts"]["self_dual"] is True
    code, out = run(capsys, "selfdual", "--spec", EXAMPLE2)
    assert code == 1
    result = json.loads(out)
    assert result["verdicts"]["self_dual"] is False
    assert result["certificate"]["first_failure"] == [0, 0]


def test_invalid_spec_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "q": 5, "s": 2, "l": 2, "k": 2, "alpha": 1, "beta": 4, "gamma": 4,
        "p": [[[3, 1], [1, 1]], [[4, 1], [1, 1]]],
    }))
    code, _ = run(capsys, "build", "--spec", str(bad))
    assert code == 2
    code, _ = run(capsys, "build", "--spec", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("content", [
    b'{"q": 5, "s": 2,',                      # not JSON
    b'{"q": 5, "s": \xff}',                   # not UTF-8
    b'{"q": 5, "s": ' + b"1" * 5000 + b"}",   # an integer past int's digit limit
])
def test_unreadable_spec_file_exit_2(capsys, tmp_path, content):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    assert main(["build", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_non_integer_seed_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("CCODE_SEED", "abc")
    assert main(["verify", "--spec", EXAMPLE1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid literal for int() with base 10: 'abc'\n"


def test_internal_value_error_is_not_invalid_input(monkeypatch):
    # only input errors exit 2: a fault inside the construction propagates
    from ccode3d import codes

    def faulty(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(codes, "kron_words", faulty)
    with pytest.raises(ValueError, match="internal fault"):
        main(["build", "--spec", EXAMPLE1])


EXAMPLE1_DICT = {
    "q": 5, "s": 2, "l": 2, "k": 2, "alpha": 1, "beta": 4, "gamma": 4,
    "p": [[[4, 1], [1, 1]], [[4, 1], [1, 1]]],
}


@pytest.mark.parametrize("field, value, where", [
    ("q", 5.9, "q"),
    ("alpha", True, "alpha"),
    ("beta", "4", "beta"),
    ("p", [[[4.0, 1], [1, 1]], [[4, 1], [1, 1]]], "p[0][0][0]"),
])
def test_non_integer_spec_fields_exit_2(capsys, tmp_path, field, value, where):
    # JSON floats, booleans and strings are rejected, never coerced with int()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**EXAMPLE1_DICT, field: value}))
    out_file = tmp_path / "result.json"
    code = main(["build", "--spec", str(spec), "--out", str(out_file)])
    assert code == 2
    assert f"spec field {where} must be an integer" in capsys.readouterr().err
    assert not out_file.exists()


def test_dual_command(capsys):
    code, out = run(capsys, "dual", "--spec", EXAMPLE2)
    assert code == 0
    result = json.loads(out)
    assert len(result["H"]) == 6 and result["dual_dimension"] == 6
    # constants (6, 2, 6): the dual is a (6, 4, 6)-constacyclic code, built the same way
    code, out = run(capsys, "dual", "--spec", EXAMPLE3)
    assert code == 0
    result = json.loads(out)
    assert len(result["H"]) == 6 and result["dual_dimension"] == 6 and result["dimension"] == 12


def test_mindist_commands(capsys):
    code, out = run(capsys, "mindist", "--spec", EXAMPLE1)
    assert code == 0
    dist = json.loads(out)["distance"]
    assert dist["d"] == 2 and dist["exact"] and dist["weight_checked"] == 1
    code, out = run(capsys, "mindist", "--spec", EXAMPLE1, "--budget", "3")
    assert code == 3
    dist = json.loads(out)["distance"]
    assert dist["d"] is None and not dist["exact"]


def test_mindist_example3(capsys):
    code, out = run(capsys, "mindist", "--spec", EXAMPLE3)
    assert code == 0
    assert json.loads(out)["distance"]["d"] == 4


def test_verify_all_pass(capsys):
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "10")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS idempotents_z_completeness" in out
    assert "PASS dual_equals_kernel" in out
    assert "PASS self_dual_criteria_agree" in out


def test_verify_example3_runs_dual_checks(capsys):
    code, out = run(capsys, "verify", "--spec", EXAMPLE3, "--pairs", "5")
    assert code == 0
    assert "FAIL" not in out
    for name in ("dual_orthogonality", "dual_rank_complement", "dual_equals_kernel",
                 "complement_generators_annihilate", "quasi_twisted_closure_x"):
        assert f"PASS {name}" in out
    assert "self_dual_criteria_agree" not in out   # self-duality needs alpha = alpha^-1


def test_verify_draws_the_pairs_per_pair_in_chunks(capsys, monkeypatch):
    # the chunked draw hands the batched check the same pairs, in order, as
    # one randbytes(8 n) call per pair, including a short last chunk
    seen = []
    flags = cli.split_product_zero_flags

    def spy(ring, y_roots, z_roots, f, g):
        seen.append((f.copy(), g.copy()))
        return flags(ring, y_roots, z_roots, f, g)

    monkeypatch.setattr(cli, "split_product_zero_flags", spy)
    ring = load_spec(EXAMPLE3).ring
    # a budget of 16 pairs' words (f and g, 2n int64 each) forces three chunks
    monkeypatch.setattr(cli, "PAIR_BYTES", 16 * 16 * ring.n + 8)
    code, out = run(capsys, "verify", "--spec", EXAMPLE3, "--pairs", str(2 * 16 + 5))
    assert code == 0 and "PASS product_zero_matches_shift_orthogonality" in out
    assert [len(f) for f, _ in seen] == [16, 16, 5]
    rng = random.Random(int(os.environ.get("CCODE_SEED", "20260810")))
    for f, g in zip(np.concatenate([f for f, _ in seen]), np.concatenate([g for _, g in seen])):
        words = np.frombuffer(rng.randbytes(8 * ring.n), dtype=np.uint32) % ring.field.p
        assert np.array_equal(np.stack([f, g]), words.reshape(2, *ring.shape()))
    # a disagreement in the first chunk fails the check, whatever the later chunks say
    seen.clear()
    monkeypatch.setattr(cli, "split_product_zero_flags",
                        lambda *args: ~spy(*args) if not seen else spy(*args))
    code, out = run(capsys, "verify", "--spec", EXAMPLE3, "--pairs", str(2 * 16 + 5))
    assert code == 1 and "FAIL product_zero_matches_shift_orthogonality" in out


def test_random_pairs_run_in_little_memory():
    # one pair at s = 4096 would gather a 128 MiB twisted circulant, and the
    # sixteen of a fixed chunk 2 GiB; the circulant is a strided view and the
    # chunks are sized by bytes, so 50 pairs run under a 1 GB address space
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
              "from ccode3d.cli import _random_pairs_agree\n"
              "from ccode3d.gf import FieldSpec\n"
              "from ccode3d.ring3d import RingParams\n"
              "ring = RingParams(FieldSpec(5), 4096, 1, 1, 1, 1, 1)\n"
              "sys.exit(0 if _random_pairs_agree(ring, 50, 20260810) else 1)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fault, failing", [
    # member labels swapped against their roots: still an ideal, each row in one block
    ("swapped", ["idempotents_z_root_evaluations", "idempotents_z_shift_eigenvalue"]),
    # member 0 is e_0 + e_1: its rows lie across two blocks, so G takes the
    # whole-matrix fallback, which ranks G exactly and sees z leave the span
    ("merged", ["idempotents_z_completeness", "idempotents_z_orthogonality",
                "idempotents_z_root_evaluations", "idempotents_z_shift_eigenvalue",
                "quasi_twisted_closure_x", "quasi_twisted_closure_y", "quasi_twisted_closure_z",
                "dual_orthogonality", "dual_equals_kernel", "complement_generators_annihilate"]),
])
def test_verify_fails_a_wrong_z_family(capsys, monkeypatch, tmp_path, fault, failing):
    from ccode3d import codes

    install_wrong_z_family(monkeypatch, fault)
    # example2 (k = 3, constants +-1) with no rows at t = 1, so that a row
    # across the z-members 0 and 1 is no sum of the code's rows
    data = json.loads(Path(EXAMPLE2).read_text())
    data["p"][1] = [[6, 0, 1], [6, 0, 1]]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(data))
    spec = load_spec(str(spec_file))
    g = codes.crt_blocks(spec.ring, codes.build_code(spec).generator_matrix)
    assert g.per_block == (fault == "swapped")
    code, out = run(capsys, "verify", "--spec", str(spec_file), "--pairs", "5")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL ")] == [f"FAIL {name}" for name in failing]
    assert "PASS generator_rank_equals_dimension" in lines


def test_verify_pair_check_stays_live(capsys, monkeypatch):
    # an x-product that always vanishes makes every split product zero, which
    # disagrees with the orbit test on random pairs
    def vanishing(m, constant, p, a, b):
        return np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)

    monkeypatch.setattr(ring3d, "axis_products", vanishing)
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "5")
    assert code == 1
    assert "FAIL product_zero_matches_shift_orthogonality" in out


def test_verify_complement_check_stays_live(capsys, monkeypatch):
    # adding 1 to one complement leaves its products with the degree-1
    # generators nonzero: (x^2 - 1)/p + 1 times p is p mod x^2 - 1
    from ccode3d.poly import Poly

    flags = cli.cell_product_zero_flags

    def perturbed(ring, left_grid, right_grid):
        left_grid = [list(row) for row in left_grid]
        left_grid[0][0] = left_grid[0][0] + Poly.one(ring.field)
        return flags(ring, left_grid, right_grid)

    monkeypatch.setattr(cli, "cell_product_zero_flags", perturbed)
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "5")
    assert code == 1
    assert "FAIL complement_generators_annihilate" in out
    assert out.count("FAIL") == 1


@pytest.mark.parametrize("spec", [EXAMPLE1, EXAMPLE3])
def test_verify_makes_no_full_ring_product(capsys, monkeypatch, spec):
    # every product verify makes goes through the CRT split and axis_products
    def refused(params, a, b):
        raise AssertionError("verify called ring_products")

    monkeypatch.setattr(ring3d, "ring_products", refused)
    code, out = run(capsys, "verify", "--spec", spec, "--pairs", "20")
    assert code == 0 and "FAIL" not in out


_JSON_LEAVES = st.one_of(st.integers(-10**6, 10**6), st.integers(0, 12),
                         st.booleans(), st.none(), st.text(max_size=4), st.floats())


def _int_lists(depth, min_size=0):
    """Lists of ints nested `depth` deep and ragged; empty ones unless min_size."""
    strategy = st.integers(-20, 10**9)
    for _ in range(depth):
        strategy = st.lists(strategy, min_size=min_size, max_size=4)
    return strategy


_INT_LISTS = st.one_of(*(_int_lists(d, m) for d in range(1, 5) for m in (1, 0)))
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_LEAVES, _INT_LISTS,
              st.lists(st.one_of(st.integers(0, 5), st.booleans()), max_size=5)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=200)
@given(st.one_of(st.dictionaries(st.text(max_size=5), st.one_of(_INT_LISTS, _JSON_VALUES),
                                 max_size=6),
                 _JSON_VALUES))
def test_canonical_json_matches_stdlib_indent(obj):
    # byte-identical to the stdlib's indenting encoder on int lists and on
    # every other value: bools mixed into int lists, None, strings, floats
    # (NaN, infinities and -0.0 included), empty, ragged and mixed-depth
    # lists, nested dicts
    assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_canonical_json_int_matrices():
    for obj in ({"G": [[1, 2, 3], [4, 5, 6]], "n": 3},
                {"generators": [[[[0, 1], [2, 3]]], [[[4, 5], [6, 7]]]]},
                {"b": [[True, 1], [0, False]], "e": [[], [1]], "r": [[1], 2], "u": [1, [2]]},
                {"s": [1, "], [", "2, 3"], "d": [[1, 2], [{"a": 1, "b": [2, 3]}]], "f": [0, 1.5]},
                [[1, -2], [3]], [[[1, 2], [3]], [[4]]], [1, None]):
        assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("scalar", [np.int64(1), np.bool_(True)])
def test_canonical_json_refuses_numpy_scalars(scalar):
    # only int arrays are written as their lists; a numpy scalar raises the
    # stdlib's TypeError, alone, in a list and beside an array
    for obj in (scalar, [scalar], {"G": np.eye(2, dtype=np.int64), "n": scalar}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json(obj)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps([scalar], indent=2, sort_keys=True)


_INT_ARRAYS = hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
                        elements=st.integers(-10**6, 10**9))


@settings(max_examples=200)
@given(st.dictionaries(st.text(max_size=5), st.one_of(_INT_ARRAYS, _JSON_VALUES), max_size=6))
def test_canonical_json_writes_arrays_as_their_lists(obj):
    # int arrays of 1-4 axes, zero-length axes and negative entries included,
    # beside other values: the bytes of the stdlib encoding of their tolist()
    lists = {key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in obj.items()}
    assert canonical_json(obj) == json.dumps(lists, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200)
@given(obj=st.dictionaries(st.text(max_size=5), st.one_of(_INT_ARRAYS, _JSON_VALUES), max_size=6))
def test_streamed_result_matches_canonical_json(tmp_path_factory, obj):
    # with a budget of one byte every nonempty int array goes out a row at a
    # time, after the text of the other values: the file and stdout hold
    # canonical_json's bytes all the same
    out = tmp_path_factory.getbasetemp() / "streamed.json"
    stdout = io.StringIO()
    with mock.patch.object(linalg, "PRODUCT_BYTES", 1), contextlib.redirect_stdout(stdout):
        cli._emit(obj, str(out))
        cli._emit(obj, None)
    assert out.read_text(encoding="utf-8") == stdout.getvalue() == canonical_json(obj)


def test_small_result_goes_out_in_one_write(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
    code = main(["dual", "--spec", EXAMPLE1])
    assert code == 0 and len(writes) == 1
    assert json.loads(writes[0])["dual_dimension"] == 4


@pytest.mark.parametrize("budget", [linalg.PRODUCT_BYTES, 1])
def test_unencodable_result_writes_no_file(monkeypatch, tmp_path, budget):
    # a numpy scalar among the verdicts, which sort after G, raises the
    # stdlib's TypeError before the file is made, whether the result goes
    # out in one write or its arrays in row slices
    monkeypatch.setattr(linalg, "PRODUCT_BYTES", budget)
    monkeypatch.setattr(cli, "quasi_twisted_closure", lambda *args: {"x": np.int64(1)})
    out = tmp_path / "build.json"
    with pytest.raises(TypeError, match="is not JSON serializable"):
        main(["build", "--spec", EXAMPLE1, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, cell, empty", [
    ("dual", [1], "H"),            # the whole space: H has no rows
    ("build", [4, 0, 1], "G"),     # x^2 - 1 in every cell: the zero code
])
def test_empty_matrices_match_stdlib_json(capsys, tmp_path, command, cell, empty):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"q": 5, "s": 2, "l": 2, "k": 2, "alpha": 1, "beta": 4, "gamma": 4,
                                "p": [[cell, cell], [cell, cell]]}))
    code, out = run(capsys, command, "--spec", str(spec))
    assert code == 0
    result = json.loads(out)
    assert result[empty] == []
    assert out == json.dumps(result, indent=2, sort_keys=True) + "\n"
    # an empty G or H has rank 0, and the other one is all of F_q^n
    code, out = run(capsys, "verify", "--spec", str(spec), "--pairs", "2")
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("fault, failing", [
    ("repeat", ["dual_equals_kernel"]),                      # H inside ker G, one rank short
    ("skew", ["dual_orthogonality", "dual_equals_kernel"]),  # one row of H off ker G
])
def test_verify_dual_checks_catch_a_faulty_h(capsys, monkeypatch, fault, failing):
    import dataclasses

    build_dual = cli.build_dual

    def faulty_build_dual(spec):
        dual = build_dual(spec)
        h = dual.generator_matrix.copy()
        if fault == "repeat":
            h[1] = h[0]
        else:   # a column where G is nonzero: G*(h_0 + e_c) = G*e_c != 0
            c = np.flatnonzero(cli.build_code(spec).generator_matrix.any(axis=0))[0]
            h[0, c] = (h[0, c] + 1) % spec.ring.field.p
        return dataclasses.replace(dual, generator_matrix=h)

    monkeypatch.setattr(cli, "build_dual", faulty_build_dual)
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "2")
    assert code == 1
    for name in ("dual_orthogonality", "dual_equals_kernel"):
        assert f"{'FAIL' if name in failing else 'PASS'} {name}" in out.splitlines()


def test_export_cas_script(capsys):
    code, out = run(capsys, "export", "--spec", EXAMPLE1, "--format", "cas-script")
    assert code == 0
    assert "GF(5)" in out and "Matrix(K, 4, 8," in out
    assert "MinimumDistance" in out and "IsSelfDual" in out


def test_export_csv(capsys, tmp_path):
    out_file = tmp_path / "grids.csv"
    code, _ = run(capsys, "export", "--spec", EXAMPLE3, "--format", "csv", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "# G"
    h_at = lines.index("# H")   # constants outside +-1 have a dual matrix too
    g_rows, h_rows = lines[1:h_at], lines[h_at + 1:]
    assert len(g_rows) == 12 and len(h_rows) == 6
    assert all(len(r.split(",")) == 18 for r in g_rows + h_rows)


def test_export_refuses_zero_dimension(capsys, tmp_path):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({
        "q": 5, "s": 2, "l": 2, "k": 2, "alpha": 1, "beta": 4, "gamma": 4,
        "p": [[[4, 0, 1], [4, 0, 1]], [[4, 0, 1], [4, 0, 1]]],
    }))
    code, _ = run(capsys, "export", "--spec", str(spec))
    assert code == 2
    # a usage error like any other: one error line, nothing on stdout, no file
    for fmt in ("cas-script", "csv"):
        out_file = tmp_path / f"zero.{fmt}"
        assert main(["export", "--spec", str(spec), "--format", fmt, "--out", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_file.exists()
        assert captured.err == "error: refusing to export a zero-dimensional code\n"


def test_sweep_grid_small(capsys):
    code, out = run(capsys, "sweep", "grid", "--q", "7", "--s", "2", "--l", "2", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["specs"] == 272           # (256 + 16) admissible grids
    assert report["verdict_disagreements"] == 0
    assert report["orthogonality_failures"] == 0
    assert report["kernel_mismatches"] == 0


def test_sweep_grid_refuses_past_the_spec_limit(capsys, tmp_path):
    # 8 sign rings with 1.1 * 10^15 grids: refused before any spec is made
    from ccode3d.codes import SWEEP_SPEC_LIMIT

    out_file = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["sweep", "grid", "--q", "13", "--s", "12", "--l", "2", "--k", "2",
                 "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert "has 1125899973951488 specs over 8 sign rings" in err and f"limit of {SWEEP_SPEC_LIMIT}" in err


@pytest.mark.parametrize("q, s", [("97", "32"), ("193", "64")])
def test_sweep_grid_is_sized_before_any_divisor_is_built(capsys, monkeypatch, tmp_path, q, s):
    # x^s - 1 splits into s linear factors: 2^s divisors, counted from the
    # cyclotomic cosets and refused, where building them would not end
    from ccode3d import codes
    from ccode3d.codes import SWEEP_SPEC_LIMIT

    def no_divisors(*args):
        raise AssertionError("the divisors were built before the sweep was sized")

    monkeypatch.setattr(codes, "binomial_divisors", no_divisors)
    out_file = tmp_path / "report.json"
    code = main(["sweep", "grid", "--q", q, "--s", s, "--l", "1", "--k", "1",
                 "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert f"past the limit of {SWEEP_SPEC_LIMIT}" in err


def test_sweep_grid_refuses_past_the_byte_limit(capsys, monkeypatch, tmp_path):
    # x^2187 - 1 = (x - 1)^2187 over F_3: 17,504 grids, inside the spec limit,
    # but 2,188 divisors a table make (2188, 2187, 2187) band stacks; the
    # sweep is sized from cosets and refused before any divisor is built:
    # 8 * 2187^2 * (2 * 4376 + 3 * 256 * 2) bytes for the code and dual bands
    # of both alphas and a chunk of 256 grids, two kept cell pairs each
    from ccode3d import codes
    from ccode3d.codes import SWEEP_BYTE_LIMIT

    def no_divisors(*args):
        raise AssertionError("the divisors were built before the sweep was sized")

    monkeypatch.setattr(codes, "binomial_divisors", no_divisors)
    out_file = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["sweep", "grid", "--q", "3", "--s", "2187", "--l", "1", "--k", "1",
                 "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "needs 393657480576 bytes" in err and f"limit of {SWEEP_BYTE_LIMIT} bytes" in err


def test_sweep_grid_refuses_an_oversized_ring(capsys, tmp_path):
    # n = 4099 is refused before x^4099 - 1 is factored
    from ccode3d.codes import SPEC_LENGTH_LIMIT

    out_file = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["sweep", "grid", "--q", "13", "--s", "4099", "--l", "1", "--k", "1",
                 "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert f"n = s*l*k = 4099 is past the limit of {SPEC_LENGTH_LIMIT}" in err


@pytest.mark.parametrize("qs, s, lk, n", [
    (["13"], "4099", "1", 4099),          # no divisor of x^4099 - 1 is counted
    (["5", "13"], "40", "12", 5760),      # nor any over F_5 before F_13 is checked
])
def test_sweep_no_selfdual_refuses_an_oversized_ring(capsys, monkeypatch, tmp_path, qs, s, lk, n):
    from ccode3d import codes
    from ccode3d.codes import SPEC_LENGTH_LIMIT

    def no_counting(*args):
        raise AssertionError("a binomial's divisors were counted before every q was checked")

    monkeypatch.setattr(codes, "_divisor_counts", no_counting)
    out_file = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["sweep", "no-selfdual", "--q", *qs, "--s", s, "--l", lk, "--k", lk,
                 "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert f"n = s*l*k = {n} is past the limit of {SPEC_LENGTH_LIMIT}" in err


@pytest.mark.parametrize("s, l, k", [("0", "1", "1"), ("3", "-2", "2"), ("3", "2", "0")])
def test_sweep_no_selfdual_refuses_bounds_below_one(capsys, s, l, k):
    code = main(["sweep", "no-selfdual", "--q", "5", "--s", s, "--l", l, "--k", k])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: scan bounds s, l, k must be positive, got {s}, {l}, {k}\n"


def test_build_refuses_an_oversized_spec(capsys, tmp_path):
    # n = 10^6 is refused before x^s - 1 is divided or any matrix allocated
    from ccode3d.codes import SPEC_LENGTH_LIMIT

    spec = {"q": 5, "s": 1000000, "l": 1, "k": 1, "alpha": 1, "beta": 1, "gamma": 1, "p": [[[4, 1]]]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "build.json"
    start = time.perf_counter()
    code = main(["build", "--spec", str(spec_file), "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert f"n = s*l*k = 1000000 is past the limit of {SPEC_LENGTH_LIMIT}" in err


def test_sweep_no_selfdual(capsys):
    code, out = run(capsys, "sweep", "no-selfdual", "--q", "5", "--s", "2", "--l", "2", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["selfdual_grids_found"] == 0
    assert report["tuples"] > 0


def test_each_spec_validated_once(capsys, monkeypatch):
    # CodeSpec validates itself through the codes module global, so a wrapper
    # installed there (as a tracer does) sees every spec exactly once
    from ccode3d import codes
    from ccode3d.gf import FieldSpec

    calls = []
    validate = codes.validate_spec

    def counting_validate(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(codes, "validate_spec", counting_validate)
    assert main(["selfdual", "--spec", EXAMPLE1]) == 0
    assert len(calls) == 1
    # the sweep makes no spec: its grids are indices into each ring's divisors
    reference = per_spec_sweep_report(FieldSpec(5), 2, 2, 2)
    monkeypatch.setattr(codes, "CodeSpec", None)
    assert codes.sign_grid_sweep_report(FieldSpec(5), 2, 2, 2) == reference


def test_verify_transforms_g_once(capsys, monkeypatch):
    # example1 is self-dual, so the cross-check multiplies G by G; it reads
    # G at the roots from the blocks verify has made, and G at the inverse
    # roots, which are the roots reordered for constants +-1, from the same
    # blocks permuted; selfdual transforms G once too
    from ccode3d import codes

    calls = []
    crt_blocks = codes.crt_blocks

    def counting(ring, words, inverse=False):
        calls.append((len(words), inverse))
        return crt_blocks(ring, words, inverse)

    monkeypatch.setattr(codes, "crt_blocks", counting)
    monkeypatch.setattr(cli, "crt_blocks", counting)
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "2")
    assert code == 0 and "PASS self_dual_criteria_agree" in out
    assert calls == [(4, False), (4, True)]   # G, then H at the inverse roots
    calls.clear()
    code, out = run(capsys, "selfdual", "--spec", EXAMPLE1)
    assert code == 0 and json.loads(out)["certificate"]["direct_check"] is True
    assert calls == [(4, False)]


def test_verify_evaluates_each_family_once(capsys):
    # the identity check and the complement check both read each family's
    # values at the roots of its modulus (idempotents.member_values): one
    # evaluation a family, four reads a verify; example1's y- and z-families
    # are one family (l = k = 2, beta = gamma = 4)
    from ccode3d.codes import code_idempotents
    from ccode3d.idempotents import member_values

    for spec, families in ((EXAMPLE1, 1), (EXAMPLE3, 2)):
        assert len(set(code_idempotents(load_spec(spec).ring))) == families
        member_values.cache_clear()
        code, out = run(capsys, "verify", "--spec", spec, "--pairs", "2")
        assert code == 0 and "FAIL" not in out
        info = member_values.cache_info()
        assert (info.misses, info.hits + info.misses) == (families, 4)


def test_commands_make_no_poly_member(capsys, monkeypatch, tmp_path):
    # the codes and checks read each family's coefficient matrix E; only the
    # idempotents command turns its rows into polynomials, to print them
    from ccode3d.idempotents import IdempotentFamily

    def no_members(fam):
        raise AssertionError("a Poly member was made")

    monkeypatch.setattr(IdempotentFamily, "members", property(no_members))
    for spec in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        for command in ("build", "dual", "selfdual", "verify"):
            if command == "selfdual" and spec == EXAMPLE3:   # constants not +-1: exit 2
                continue
            assert main([command, "--spec", spec, "--out", str(tmp_path / "out.json")]) in (0, 1)
    capsys.readouterr()
    with pytest.raises(AssertionError, match="Poly member"):
        main(["idempotents", "--q", "5", "--k", "2", "--gamma", "-1"])


def test_eliminations_per_command(capsys, monkeypatch):
    # build_code and build_dual prove their rank by construction and eliminate
    # nothing, the closure is tested against the dual's H, and verify ranks G
    # and H block by block in the CRT basis, one rank_stack call each
    from ccode3d import codes, linalg

    calls, stack_calls = [], []
    rref, rank_stack = linalg.rref, linalg.rank_stack

    def counting_rref(m, p):
        calls.append(p)
        return rref(m, p)

    def counting_rank_stack(m, p):
        stack_calls.append(p)
        return rank_stack(m, p)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "rank_stack", counting_rank_stack)
    for argv, stacks in (
        (["build", "--spec", EXAMPLE1], 0),
        (["dual", "--spec", EXAMPLE1], 0),
        (["dual", "--spec", EXAMPLE3], 0),        # for non-unit constants too
        (["selfdual", "--spec", EXAMPLE1], 0),
        (["mindist", "--spec", EXAMPLE1], 0),     # the dual's matrix is the parity check
        (["mindist", "--spec", EXAMPLE3], 0),     # for non-unit constants too
        # the ranks of G and of H: H spans ker G iff G*H^T = 0 and rank H = n - rank G
        (["verify", "--spec", EXAMPLE1, "--pairs", "2"], 2),
        (["verify", "--spec", EXAMPLE3, "--pairs", "2"], 2),
    ):
        calls.clear()
        stack_calls.clear()
        assert main(argv) == 0
        assert not calls, argv
        assert len(stack_calls) == stacks, argv
    capsys.readouterr()
    calls.clear()
    # the sweep eliminates stacks only, and builds no G or H: one rank_stack
    # call for the cell tensors of every ring and one for the code and dual
    # bands of every alpha, however the 8 rings' 2,048 specs are chunked
    # (100 makes 21 chunks, some of which straddle two rings)
    for chunk in (100, 7, codes.SWEEP_CHUNK):
        stack_calls.clear()
        monkeypatch.setattr(codes, "SWEEP_CHUNK", chunk)
        code, out = run(capsys, "sweep", "grid", "--q", "5", "--s", "2", "--l", "2", "--k", "2")
        assert code == 0 and json.loads(out)["specs"] == 2048
        assert len(stack_calls) == 2
    assert not calls


def test_parser_is_built_once(capsys):
    from ccode3d.cli import _parser

    assert _parser() is _parser()
    with pytest.raises(SystemExit) as exc:   # argparse usage error
        main(["build"])
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err
    code, out = run(capsys, "build", "--spec", EXAMPLE1)
    assert code == 0 and json.loads(out)["dimension"] == 4


def test_selfdual_builds_code_once(capsys, monkeypatch):
    # the command's code is the one the self-duality verdict is checked against
    from ccode3d import cli, codes

    calls = []
    build_code = codes.build_code

    def counting_build_code(spec):
        calls.append(spec)
        return build_code(spec)

    for module in (codes, cli):
        monkeypatch.setattr(module, "build_code", counting_build_code)
    assert main(["selfdual", "--spec", EXAMPLE1]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["certificate"]["direct_check"] is True


def test_rank_oracles_stay_live(capsys, monkeypatch, tmp_path):
    # a construction fault that repeats a row must be caught by verify and the
    # sweep, which check the rank the construction no longer eliminates for
    from ccode3d import codes
    from ccode3d.gf import FieldSpec

    bands = codes._bands

    def repeating_bands(x_blocks, s):
        rows = bands(x_blocks, s)
        for block, (_, count) in zip(rows, x_blocks):
            if count >= 2:
                block[1] = block[0]
        return rows

    monkeypatch.setattr(codes, "_bands", repeating_bands)
    spec = json.loads(Path(EXAMPLE1).read_text())
    spec["p"][0][0] = [1]                      # a cell with s = 2 rows
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, out = run(capsys, "verify", "--spec", str(spec_file), "--pairs", "2")
    assert code == 1
    assert "FAIL generator_rank_equals_dimension" in out
    assert "FAIL dual_rank_complement" in out
    assert codes.sign_grid_sweep_report(FieldSpec(5), 2, 2, 2)["rank_mismatches"] > 0


def test_idempotents_length_limit_is_inclusive(capsys, monkeypatch):
    # over F_17, gamma = -1 has order 2: the k = 4 family has 4 members, the full one 8
    monkeypatch.setattr(cli, "SPEC_LENGTH_LIMIT", 4)
    code, out = run(capsys, "idempotents", "--q", "17", "--k", "4", "--gamma", "-1")
    assert code == 0 and out.count("e_") == 4
    assert main(["idempotents", "--q", "17", "--k", "4", "--gamma", "-1", "--full"]) == 2
    assert main(["idempotents", "--q", "17", "--k", "8", "--gamma", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ccode3d", "idempotents", "--q", "5", "--k", "2", "--gamma", "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "e_0(z) = 3 + 4z" in proc.stdout


def test_mindist_leaves_numpy_random_unloaded(tmp_path):
    # numpy.random adds about 6 MB of resident memory to every process that
    # imports it; neither the CLI nor the distance search may load it
    out = str(tmp_path / "mindist.json")
    script = ("import sys\n"
              "from ccode3d.cli import main\n"
              f"status = main(['mindist', '--spec', {EXAMPLE1!r}, '--out', {out!r}])\n"
              "print(status, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_mindist_indexes_a_large_field_in_little_memory(tmp_path):
    # x^128 - 1 over F_65521 with s = 256: the search indexes the 256 parity
    # columns of length 128 once each, not their 65,520 multiples (17 GB), so
    # it runs under a 2 GB address-space limit: the default budget stops it
    # after weight 1 (exit 3), a lifted one finds d = 2 (exit 0)
    spec = {"q": 65521, "s": 256, "l": 1, "k": 1, "alpha": 1, "beta": 1, "gamma": 1,
            "p": [[[65520] + [0] * 127 + [1]]]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    for budget, status in (([], 3), (["--budget", "10000000000"], 0)):
        out = tmp_path / f"mindist-{status}.json"
        argv = ["mindist", "--spec", str(spec_file), "--out", str(out), *budget]
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
                  "from ccode3d.cli import main\n"
                  f"sys.exit(main({argv!r}))\n")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10
        assert proc.returncode == status, proc.stderr
        result = json.loads(out.read_text())["distance"]
        if status:
            assert (result["d"], result["weight_checked"]) == (None, 1)
        else:
            assert result["d"] == 2 and result["weight_checked"] == 1
            assert [i for i, v in enumerate(result["witness"]) if v] == [0, 128]


def test_experiment_scripts_run():
    # the scripts import ccode3d names directly; a removed name breaks them
    for script in ("reproduce_examples.py", "selfdual_survey.py"):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_load_spec_matches_library_build():
    spec = load_spec(EXAMPLE1)
    assert spec.ring.n == 8
    assert [list(p.coeffs) for row in spec.divisor_grid for p in row] == [[4, 1], [1, 1]] * 2


DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def golden_commands() -> list[list[str]]:
    """The CLI commands whose outputs tests/cli_digests.json pins; spec paths
    are relative to the repository root."""
    commands = []
    for name in ("example1", "example2", "example3"):
        spec = f"specs/{name}.json"
        for command in ("build", "dual", "selfdual", "verify", "mindist"):
            commands.append([command, "--spec", spec])
        for fmt in ("cas-script", "csv"):
            commands.append(["export", "--spec", spec, "--format", fmt])
    commands += [
        ["idempotents", "--q", "5", "--k", "2", "--gamma", "-1", "--full"],
        ["idempotents", "--q", "5", "--k", "3", "--gamma", "1"],
        ["factor", "--q", "7", "--s", "3", "--alpha", "-1"],
        ["sweep", "grid", "--q", "5", "--s", "2", "--l", "2", "--k", "2"],
        ["sweep", "no-selfdual", "--q", "5", "7", "--s", "4", "--l", "4", "--k", "4"],
    ]
    return commands


def cli_digest(argv: list[str], out_dir: Path) -> str:
    """sha256 over the exit code, stdout, stderr and --out file bytes of one
    in-process run; commands without an --out option hash an empty file."""
    import contextlib
    import hashlib
    import io

    args = [str(ROOT / a) if a.startswith("specs/") else a for a in argv]
    out_file = out_dir / "out"
    if out_file.exists():
        out_file.unlink()
    if argv[0] not in ("idempotents", "factor"):
        args += ["--out", str(out_file)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    out_bytes = out_file.read_bytes() if out_file.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout.getvalue().encode(),
                 stderr.getvalue().encode(), out_bytes):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def cli_digests(out_dir: Path) -> dict[str, str]:
    return {" ".join(argv): cli_digest(argv, out_dir) for argv in golden_commands()}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    # exit codes, JSON keys, certificates, matrices and messages stay
    # byte-identical; an intended output change rewrites tests/cli_digests.json
    # with json.dumps(cli_digests(dir), indent=2, sort_keys=True)
    monkeypatch.delenv("CCODE_SEED", raising=False)
    golden = json.loads(DIGESTS.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in golden_commands())
    got = cli_digests(tmp_path)
    mismatched = [cmd for cmd in golden if got[cmd] != golden[cmd]]
    assert not mismatched, f"CLI output changed for: {mismatched}"


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--spec", EXAMPLE1, "--pairs", "-1"], "--pairs"),
    (["mindist", "--spec", EXAMPLE1, "--max-weight", "-1"], "--max-weight"),
    (["mindist", "--spec", EXAMPLE1, "--budget", "-5"], "--budget"),
    (["mindist", "--spec", EXAMPLE1, "--budget", "x"], "--budget"),
])
def test_negative_counts_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a non-negative integer" in err


def test_zero_counts_are_accepted(capsys):
    code, out = run(capsys, "mindist", "--spec", EXAMPLE1, "--max-weight", "0")
    assert code == 3 and json.loads(out)["distance"]["weight_checked"] == 0
    code, out = run(capsys, "verify", "--spec", EXAMPLE1, "--pairs", "0")
    assert code == 0
