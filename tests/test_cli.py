"""End-to-end tests of the command line interface.

Everything runs in-process through cli.main so exit codes and exact
stdout bytes can be asserted.
"""

import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import gzcount
from gzcount.cli import (
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_partition,
    routes_for,
)
from gzcount.counting import CountCache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_partition_forms():
    assert parse_partition("1,1,2,3") == [1, 1, 2, 3]
    assert parse_partition("1^2 2 3") == [1, 1, 2, 3]
    assert parse_partition("-2 0^3 4") == [-2, 0, 0, 0, 4]


def test_parse_partition_errors():
    for bad in ["", "2 1", "1^0", "1^-2", "x", "1^^2"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_a_decreasing_partition_names_the_first_two_values_out_of_order(capsys):
    with pytest.raises(ValueError, match=r"^partition values must be weakly increasing: 3 comes before 2$"):
        parse_partition("1 3^2 2 1^0")
    # The faulty token is not expanded, so the message stays short.
    code, out, err = run_cli(capsys, "count", "2 1^1000000")
    assert (code, out) == (EXIT_USAGE, "") and len(err) < 200


# ------------------------------------------------------------------- count


def test_count_default_method(capsys):
    code, out, _ = run_cli(capsys, "count", "1 2 3")
    assert code == EXIT_OK
    assert out == "7\n"


def test_count_trivial_and_two_value(capsys):
    code, out, _ = run_cli(capsys, "count", "4^6")
    assert (code, out) == (EXIT_OK, "1\n")
    code, out, _ = run_cli(capsys, "count", "1^3 2^2")
    assert (code, out) == (EXIT_OK, "10\n")


def test_count_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "count", "1 2 3", "--method", "all")
    assert code == EXIT_OK
    assert out == (
        "a-infinity 7\n"
        "fiber 7\n"
        "formula 7\n"
        "recurrence 7\n"
        "oracle 7\n"
        "agreement: ok\n"
    )


def test_count_json_output(capsys):
    code, out, _ = run_cli(capsys, "count", "1 2 3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["counts"] == {"a-infinity": "7"}
    assert data["agreement"] is True
    assert data["partition"] == [1, 2, 3]


def test_count_all_skips_oracle_beyond_limit(capsys):
    code, out, _ = run_cli(capsys, "count", "1 2 3 4 5 6 7", "--method", "all")
    assert code == EXIT_OK
    assert "oracle skipped (ambient dimension 21 exceeds limit 15)" in out
    assert "agreement: ok" in out


def test_count_all_runs_oracle_at_default_limit(capsys):
    code, out, _ = run_cli(capsys, "count", "1 2 3 4 5 6", "--method", "all")
    assert code == EXIT_OK
    assert out == "a-infinity 4884\nfiber 4884\noracle 4884\nagreement: ok\n"


def test_count_oracle_refuses_beyond_limit(capsys):
    code, out, err = run_cli(capsys, "count", "1 2 3 4 5 6 7", "--method", "oracle")
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == "gzcount: refused: ambient dimension 21 exceeds the enumeration limit 15\n"


@pytest.mark.parametrize("method", ["oracle", "all"])
def test_count_negative_limit_dim_is_usage_error(capsys, method):
    code, out, err = run_cli(capsys, "count", "1 2 3", "--method", method, "--limit-dim", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "argument --limit-dim: must be a non-negative integer, got '-1'" in err
    assert "exceeds limit" not in err


def test_count_recurrence_answers_beyond_the_recursion_limit(capsys):
    assert run_cli(capsys, "count", "1^3000 2 3", "--method", "recurrence") == (
        EXIT_OK, "4513510002\n", "",
    )
    assert run_cli(capsys, "count", "1^3000 2 3", "--method", "formula") == (
        EXIT_OK, "4513510002\n", "",
    )


@pytest.mark.parametrize("partition, value, ambient", [
    ("1^1200 2 3", "290164002", 721801),
    ("1^3000 2 3", "4513510002", 4504501),
])
def test_count_all_answers_on_deep_three_value_vectors(capsys, partition, value, ambient):
    code, out, err = run_cli(capsys, "count", partition, "--method", "all")
    assert (code, err) == (EXIT_OK, "")
    assert out == "".join(
        f"{method} {value}\n" for method in ["a-infinity", "fiber", "formula", "recurrence"]
    ) + f"oracle skipped (ambient dimension {ambient} exceeds limit 15)\nagreement: ok\n"


def test_count_recurrence_on_a_large_cube_matches_the_formula(capsys, monkeypatch):
    from gzcount import counting

    # A fresh memo, so the 286,210 cells are freed when the test ends.
    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    code, out, _ = run_cli(capsys, "count", "1^60 2^60 3^60", "--method", "recurrence")
    assert code == EXIT_OK
    assert len(counting._REC3_MEMO) == 286_210
    assert (code, out, "") == run_cli(capsys, "count", "1^60 2^60 3^60", "--method", "formula")


@pytest.mark.parametrize("argv, named", [
    (("count", "1^99999999999999999999 2"), "multiplicity in token '1^99999999999999999999'"),
    (("count", "1^9223372036854775808", "--method", "fiber"),
     "multiplicity in token '1^9223372036854775808'"),
    (("series", "E", "--k", "99999999999999999999"), "--k 99999999999999999999"),
    (("series", "G", "--k", "9223372036854775808", "--cap", "1"), "--k 9223372036854775808"),
])
def test_sizes_above_the_largest_sequence_are_refused_where_read(argv, named):
    # A list or tuple cannot be longer than sys.maxsize, so a multiplicity
    # or a variable count above it is refused as it is read, before
    # anything is built.
    proc = subprocess.run([sys.executable, "-m", "gzcount.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_LIMIT, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"gzcount: refused: {named} exceeds the largest ")


@pytest.mark.parametrize("argv, named", [
    (("series", "G", "--cap", "99999999999999999999"),
     "100000000000000000000 entries for k = 1, cap = 99999999999999999999"),
    (("verify", "pde", "--k", "1", "--cap", "99999999999999999999"),
     "100000000000000000000 entries for k = 1, cap = 99999999999999999999"),
    (("g4-explore", "--cap", "200"), "more than 5494804 entries for k = 4, cap = 200"),
    (("series", "G", "--k", "3000", "--cap", "2"), "more than 9003000 entries for k = 3000, cap = 2"),
])
def test_exponent_lists_above_the_limit_are_refused_before_they_are_built(argv, named):
    # The count is grown one binomial factor at a time and given up once
    # it passes the limit, so the refusal is quick and small.
    def small_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))

    proc = subprocess.run([sys.executable, "-m", "gzcount.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=small_address_space)
    assert (proc.returncode, proc.stdout) == (EXIT_LIMIT, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"gzcount: refused: exponent list of {named} exceeds the limit 2000000\n"


_HUGE_CAP = ("--cap", "99999999999999999999")


@pytest.mark.parametrize("argv, message", [
    (("series", "G3closed", *_HUGE_CAP),
     "G3 closed form cap 99999999999999999999 exceeds the limit 85"),
    (("series", "E2closed", *_HUGE_CAP),
     "E2 closed form cap 99999999999999999999 exceeds the limit 240"),
    (("series", "H", *_HUGE_CAP),
     "H series cap 99999999999999999999 exceeds the limit 280"),
    (("verify", "h", *_HUGE_CAP),
     "h check cap 99999999999999999999 exceeds the limit 130"),
    (("verify", "g3", *_HUGE_CAP),
     "G3 closed form cap 99999999999999999999 exceeds the limit 85"),
    (("verify", "e2", *_HUGE_CAP),
     "E2 closed form cap 99999999999999999999 exceeds the limit 240"),
    (("verify", "pde", "--k", "1", "--cap", "100000"),
     "pde series at cap 100000: 100001 entries times 1700000 bits bounding cap!"
     " exceeds the limit 500000000"),
])
def test_series_checks_refuse_an_oversized_cap_before_building(argv, message):
    def small_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (800_000_000, 800_000_000))

    proc = subprocess.run([sys.executable, "-m", "gzcount.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=small_address_space)
    assert (proc.returncode, proc.stdout) == (EXIT_LIMIT, "")
    assert proc.stderr == f"gzcount: refused: {message}\n"


def test_count_recurrence_refuses_a_cone_above_the_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(gzcount.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gzcount.cli", "count", "1^300 2^300 3^300", "--method", "recurrence"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_LIMIT, "")
    assert proc.stderr == (
        "gzcount: refused: three-value recurrence cone of 35955050 cells exceeds the limit 4000000\n"
    )


def test_count_all_names_the_recurrence_cone_refusal(capsys, monkeypatch):
    from gzcount import counting

    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    monkeypatch.setattr(counting, "REC3_MAX_CELLS", 13)
    reason = "three-value recurrence cone of 14 cells exceeds the limit 13"
    assert run_cli(capsys, "count", "1^2 2^2 3^3", "--method", "all") == (
        EXIT_LIMIT,
        "a-infinity 455\nfiber 455\nformula 455\n"
        f"recurrence refused ({reason})\n"
        "oracle skipped (ambient dimension 21 exceeds limit 15)\nagreement: ok\n",
        f"gzcount: refused: recurrence: {reason}\n",
    )


def test_count_refuses_on_memory_error(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("gzcount.cli.a_infinity", exhausted)
    assert run_cli(capsys, "count", "1 2 3") == (EXIT_LIMIT, "", "gzcount: refused: MemoryError\n")


def test_count_all_refusal_names_the_route(capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("gzcount.cli.recurrence_V3", too_deep)
    assert run_cli(capsys, "count", "1 2 3", "--method", "all") == (
        EXIT_LIMIT,
        "a-infinity 7\nfiber 7\nformula 7\n"
        "recurrence refused (maximum recursion depth exceeded)\n"
        "oracle 7\nagreement: ok\n",
        "gzcount: refused: recurrence: maximum recursion depth exceeded\n",
    )

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("gzcount.cli.count_by_fiber_recursion", exhausted)
    assert run_cli(capsys, "count", "1 2 3", "--method", "all") == (
        EXIT_LIMIT,
        "a-infinity 7\nfiber refused (MemoryError)\nformula 7\n"
        "recurrence refused (maximum recursion depth exceeded)\n"
        "oracle 7\nagreement: ok\n",
        "gzcount: refused: fiber: MemoryError\n"
        "gzcount: refused: recurrence: maximum recursion depth exceeded\n",
    )


def _refuse(monkeypatch, *names):
    def exhausted(*args, **kwargs):
        raise MemoryError

    for name in names:
        monkeypatch.setattr(name, exhausted)


@pytest.mark.parametrize("patched, names", [
    (("gzcount.cli.recurrence_V3",), ["recurrence"]),
    (("gzcount.cli.count_by_fiber_recursion", "gzcount.oracle.oracle_count"), ["fiber", "oracle"]),
])
def test_count_all_json_lists_refused_routes_beside_the_answers(capsys, monkeypatch, patched, names):
    _refuse(monkeypatch, *patched)
    code, out, err = run_cli(capsys, "count", "1 2 3", "--method", "all", "--format", "json")
    answered = [m for m in ("a-infinity", "fiber", "formula", "recurrence", "oracle") if m not in names]
    assert code == EXIT_LIMIT
    assert json.loads(out) == {
        "partition": [1, 2, 3],
        "multiplicities": [1, 1, 1],
        "counts": {m: "7" for m in answered},
        "oracle_skipped": False,
        "agreement": True,
        "refused": {m: "MemoryError" for m in names},
    }
    assert err == "".join(f"gzcount: refused: {m}: MemoryError\n" for m in names)


def test_count_all_judges_agreement_on_the_routes_that_answered(capsys, monkeypatch):
    # A mismatch among the answers wins over a refusal: exit 2.
    _refuse(monkeypatch, "gzcount.cli.recurrence_V3")
    monkeypatch.setattr("gzcount.cli.binomial_formula_V", lambda *mults: 8)
    code, out, err = run_cli(capsys, "count", "1 2 3", "--method", "all")
    assert code == EXIT_VERIFY
    assert out == (
        "a-infinity 7\nfiber 7\nformula 8\nrecurrence refused (MemoryError)\n"
        "oracle 7\nagreement: MISMATCH\n"
    )
    assert err == "count mismatch between methods\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_all_with_every_route_refused_prints_nothing(capsys, monkeypatch, fmt):
    _refuse(monkeypatch, "gzcount.cli.a_infinity", "gzcount.cli.count_by_fiber_recursion",
            "gzcount.cli.binomial_formula_V", "gzcount.cli.recurrence_V3",
            "gzcount.oracle.oracle_count")
    assert run_cli(capsys, "count", "1 2 3", "--method", "all", "--format", fmt) == (
        EXIT_LIMIT, "", "".join(
            f"gzcount: refused: {m}: MemoryError\n"
            for m in ("a-infinity", "fiber", "formula", "recurrence", "oracle")
        ),
    )


def test_polynomial_degree_limit_is_a_refusal(capsys, monkeypatch):
    from gzcount.polyseries import _MAX_DEGREE, Monomial, SparsePoly

    def too_high(s_max):
        return SparsePoly({Monomial({1: _MAX_DEGREE}): 1}) * SparsePoly.variable(1)

    monkeypatch.setattr("gzcount.genfun.verify_h", too_high)
    assert run_cli(capsys, "verify", "h", "--cap", "1") == (
        EXIT_LIMIT, "",
        f"gzcount: refused: total degree {_MAX_DEGREE + 1} exceeds the SparsePoly limit {_MAX_DEGREE}\n",
    )


def test_count_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "2 1")
    assert code == EXIT_USAGE
    assert "weakly increasing" in err
    code, _, err = run_cli(capsys, "count", "1 2", "--method", "formula")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "count", "1 2 3 4", "--method", "recurrence")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "count", "1 2 3", "--method", "sorcery")
    assert code == EXIT_USAGE


FORMULA_NEEDS_4 = "method formula needs exactly 3 distinct values, got 4"
RECURRENCE_NEEDS_4 = "method recurrence needs at most 3 distinct values, got 4"


# One case per regime of the route choice: at most 3 distinct values;
# 4 or more with n <= 6; 4 or more with n >= 7.
@pytest.mark.parametrize("partition, chosen, skipped", [
    ("1^3 2^2 3^2", ["a-infinity", "fiber", "formula", "recurrence"],
     {"oracle": "ambient dimension 21 exceeds limit 15"}),
    ("1^3 2 3 4", ["a-infinity", "fiber", "oracle"],
     {"formula": FORMULA_NEEDS_4, "recurrence": RECURRENCE_NEEDS_4}),
    ("1^4 2 3 4", ["a-infinity", "fiber"],
     {"formula": FORMULA_NEEDS_4, "recurrence": RECURRENCE_NEEDS_4,
      "oracle": "ambient dimension 21 exceeds limit 15"}),
])
def test_routes_for_each_regime(capsys, partition, chosen, skipped):
    values = parse_partition(partition)
    mults = tuple(values.count(v) for v in sorted(set(values)))
    assert routes_for(mults, len(values), 15) == (chosen, skipped)
    # --method all prints the chosen routes in order, then the oracle skip.
    code, out, _ = run_cli(capsys, "count", partition, "--method", "all")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:len(chosen)]] == chosen
    if "oracle" in skipped:
        assert lines[len(chosen)] == f"oracle skipped ({skipped['oracle']})"
    # A single skipped route asked for by name is a usage error with the
    # same reason; the oracle refuses by itself, with exit 3.
    for method in ("formula", "recurrence"):
        if method in skipped:
            code, out, err = run_cli(capsys, "count", partition, "--method", method)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"gzcount: error: {skipped[method]}\n"
    if "oracle" in skipped:
        code, _, err = run_cli(capsys, "count", partition, "--method", "oracle")
        assert code == EXIT_LIMIT
        assert "exceeds the enumeration limit 15" in err


# ------------------------------------------------------------------- table


def test_table_plain_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "1")
    assert code == EXIT_OK
    assert out == "1,\n1,1\n"
    code, out, _ = run_cli(capsys, "table", "3")
    assert code == EXIT_OK
    assert out == "1,,,\n3,3,,\n3,7,3,\n1,3,3,1\n"


def test_table_skew_csv_has_zero_diagonal(capsys):
    code, out, _ = run_cli(capsys, "table", "2", "--variant", "skew")
    assert code == EXIT_OK
    assert out == "0,-2,-1\n2,0,-2\n1,2,0\n"


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["s"] == 1
    assert data["variant"] == "plain"
    assert data["cells"] == [
        {"k": 0, "m": 0, "value": 1},
        {"k": 0, "m": 1, "value": 1},
        {"k": 1, "m": 0, "value": 1},
    ]


@pytest.mark.parametrize("variant", ["plain", "skew"])
def test_table_json_is_streamed_with_the_bytes_of_one_dump(capsys, variant):
    from gzcount.counting import tri_table

    for s in (1, 2, 5, 30):
        table = tri_table(s, variant)
        cells = [{"k": k, "m": m, "value": table.entries[k, m]} for k, m in sorted(table.entries)]
        expected = json.dumps({"s": s, "variant": variant, "cells": cells}, indent=2, sort_keys=True)
        assert run_cli(capsys, "table", str(s), "--variant", variant, "--format", "json") == (
            EXIT_OK, expected + "\n", "")


def test_table_usage_error(capsys):
    code, _, _ = run_cli(capsys, "table", "0")
    assert code == EXIT_USAGE


def test_table_size_limit(capsys, monkeypatch):
    from gzcount import counting

    for size in ("501", "3000"):
        assert run_cli(capsys, "table", size, "--variant", "skew") == (
            EXIT_LIMIT, "", f"gzcount: refused: table size {size} exceeds the limit 500\n")
    monkeypatch.setattr(counting, "TABLE_MAX_S", 3)
    assert run_cli(capsys, "table", "3") == (EXIT_OK, "1,,,\n3,3,,\n3,7,3,\n1,3,3,1\n", "")
    assert run_cli(capsys, "table", "4", "--format", "json") == (
        EXIT_LIMIT, "", "gzcount: refused: table size 4 exceeds the limit 3\n")


# ------------------------------------------------------------------ series


def test_series_G_two_variables_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "series", "G", "--k", "2", "--cap", "3")
    assert code == EXIT_OK
    assert out == (
        "y1,y2,coefficient\n"
        "0,0,1\n"
        "0,1,1\n"
        "1,0,1\n"
        "0,2,1\n"
        "1,1,2\n"
        "2,0,1\n"
        "0,3,1\n"
        "1,2,3\n"
        "2,1,3\n"
        "3,0,1\n"
    )


def test_series_E_single_variable(capsys):
    code, out, _ = run_cli(capsys, "series", "E", "--k", "1", "--cap", "3")
    assert code == EXIT_OK
    assert out == "z1,coefficient\n0,1\n1,1\n2,1/2\n3,1/6\n"


def test_series_H_slices(capsys):
    code, out, _ = run_cli(capsys, "series", "H", "--cap", "3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["variables"] == ["x", "z", "y"]
    terms = {tuple(t["exponents"]): t["coefficient"] for t in data["terms"]}
    assert terms[(0, 0, 1)] == "1"
    assert terms[(1, 1, 1)] == "-1"


def test_series_G3closed_naming_and_fixed_k(capsys):
    code, out, _ = run_cli(capsys, "series", "G3closed", "--cap", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["variables"] == ["x", "y", "z"]
    code, _, err = run_cli(capsys, "series", "G3closed", "--k", "4", "--cap", "2")
    assert code == EXIT_USAGE
    assert "fixed variable count" in err


def test_series_with_many_variables_answers(capsys):
    # The builders list exponent vectors without recursion, so 1,200
    # variables do not reach the interpreter's recursion limit.
    code, out, err = run_cli(capsys, "series", "G", "--k", "1200", "--cap", "1")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert len(lines) == 1202
    assert lines[1] == ",".join(["0"] * 1200 + ["1"])
    assert lines[-1] == ",".join(["1"] + ["0"] * 1199 + ["1"])


@pytest.mark.parametrize("argv, out", [
    (("series", "H"), "x,z,y,coefficient\n"),
    (("series", "E2closed"), "z1,z2,coefficient\n0,0,1\n"),
    (("series", "G3closed"), "x,y,z,coefficient\n0,0,0,1\n"),
])
def test_series_at_cap_zero_and_below(capsys, argv, out):
    assert run_cli(capsys, *argv, "--cap", "0") == (EXIT_OK, out, "")
    for below in (argv, ("series", "E", "--k", "2"), ("series", "G", "--k", "3")):
        assert run_cli(capsys, *below, "--cap", "-1") == (
            EXIT_USAGE, "", "gzcount: error: cap must be >= 0, got -1\n")


def test_series_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "series", "G", "--k", "3", "--cap", "4")
    _, second, _ = run_cli(capsys, "series", "G", "--k", "3", "--cap", "4")
    assert first == second


# sha256 of stdout recorded with the tuple-keyed series before the graded
# packed representation; any change of an output byte shows here.
SERIES_STDOUT_SHA256 = {
    "series E --k 3 --cap 10": "a413264b26a45c1ede19a09f1946f69dc9f5b1645834dc3fe9667edf5ae4cc27",
    "series G3closed --cap 20": "dd2340e353a585ccc0ea403bf9ae347ce597db2dbee97d9df6ddb5a5ac959927",
    "series E2closed --cap 16": "5ea35175e63b58dc148eb55f6dffeaa5ad7338e4164f7ca4ec9ab7be59b2f5a7",
    "series H --cap 12": "dd2d493ad2f32b18eb28b45dcceb34e31eb2e66d405f64f1d26e87d0fb9b1b2c",
    # Re-pinned when the h report's detail text came to name the expansion
    # of H in y (see test_verify_digests_change_only_in_the_h_detail).
    "verify all --cap 12 --format json":
        "f7edb340ccd4e4330a3d7278d3d6784a3cf3d90dd8ca47aa6d0869723c7ccd99",
    # Recorded with the dict-grown tables and verify_h on the series H
    # inverted in three variables.
    "table 40": "6818517b0431e84cbc2c4f57fa1b533090dc565e14a496bcbd1e1757b80b45b9",
    "table 40 --variant skew --format json":
        "27af4b3c535b8fdaf30bf56eba2a92457c4c42a3fd21a467d22141a1f2fcc647",
    # Recorded with the skew table grown by its own rule, at a size
    # beyond the dict reference's s = 60.
    "table 120 --variant skew":
        "dd52d22118d0d9300269b0342666238511436341c6a68b9f71cb14d2390055c9",
    "table 120 --variant skew --format json":
        "a3047218e656b17344a79d82cd9cf2aa912a317314a6d931084d8cd9cb2e04b5",
    "series H --cap 30": "49bce588f17e765b299f527581a8799f09a481a53afa2dd83a43aab41b6c3e74",
    "verify h --cap 18": "1e189ea61165b28c318acd163530a15549f000a91b58128d0f15544d983d5445",
    # Recorded with exp(z1 + z2) summed from powers of z1 + z2.
    "series E2closed --cap 30": "b492318064f4c1f377c72d4e69bd202456c128fcd013f607f887bf0be617153a",
    "verify e2 --cap 24 --format json":
        "787970ce840a044836247965efe081679a9056b3c537c1117f0ba4f843af51ec",
}


@pytest.mark.parametrize("command", sorted(SERIES_STDOUT_SHA256))
def test_series_and_verify_stdout_digests(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_STDOUT_SHA256[command]


@pytest.mark.parametrize("command, digest", [
    ("verify all --cap 12 --format json",
     "ec9466c6f736a6bb6d52dacea40757e614039717d2e19a82aaeb5127adc62e42"),
    ("verify h --cap 18", "7de7adb45aeab08ab3f49ff8e5889dfa6e122f399c26b398d7b27610a8330ceb"),
])
def test_verify_digests_change_only_in_the_h_detail(capsys, command, digest):
    # The digests these reports had before the h detail text was reworded:
    # with the old text put back, the bytes are the old bytes.
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    new, old = "from H expanded in y", "at series cap 3*s_max"
    assert out.count(new) == 1
    restored = out.replace(", " + new, " " + old)
    assert hashlib.sha256(restored.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("verify", "g3", "--cap", "12"), ("series", "G3closed", "--cap", "12"),
])
def test_a_pre_grown_closed_form_keeps_stdout_bytes(capsys, argv):
    # The table starts empty in each test; grown to cap 20 first, the
    # cap 12 answer is a truncation of it, with the same bytes.
    empty = run_cli(capsys, *argv)
    assert empty[0] == EXIT_OK
    gzcount.genfun._GROWN.clear()
    gzcount.genfun.closed_form_G3(20)
    assert run_cli(capsys, *argv) == empty
    assert gzcount.genfun._GROWN["G3"].cap == 20


# ------------------------------------------------------------------ verify


def test_verify_pde_single_k(capsys):
    code, out, _ = run_cli(capsys, "verify", "pde", "--k", "2", "--cap", "8")
    assert code == EXIT_OK
    assert "pde-E k=2 cap=8: PASS" in out
    assert "all identities verified" in out


def test_verify_all_small_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--cap", "5")
    assert code == EXIT_OK
    assert out.count("PASS") == 11  # pde x4, dde x4, g3, e2, h
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "dde", "--k", "1:2", "--cap", "6", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert [r["k"] for r in data["reports"]] == [1, 2]


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "pde", "--k", "1:2", "--cap", "5", "--format", "csv")
    assert code == EXIT_OK
    assert out == (
        "identity,k,cap,max_abs,nonzero_terms,ok\n"
        "pde-E,1,5,0,0,true\n"
        "pde-E,2,5,0,0,true\n"
    )


def test_verify_fails_on_corrupted_cache(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _, _ = run_cli(capsys, "count", "1 2 3", "--cache", str(path))
    assert code == EXIT_OK

    data = json.loads(path.read_text())
    data["counts"]["1,1,1"] = "8"
    path.write_text(json.dumps(data))

    code, out, _ = run_cli(capsys, "verify", "dde", "--k", "3", "--cap", "4",
                           "--cache", str(path))
    assert code == EXIT_VERIFY
    assert "FAIL" in out
    # The failing run still saves what it computed.
    after = json.loads(path.read_text())["counts"]
    assert set(data["counts"]) < set(after)
    assert after["1,1,1"] == "8"


@pytest.mark.parametrize("suite", ["pde", "dde", "all"])
@pytest.mark.parametrize("k, cap, first", [("1:13", "12", 13), ("5:8", "3", 5), ("2:4", "3", 4)])
def test_verify_checks_the_cap_before_any_suite_runs(capsys, monkeypatch, suite, k, cap, first):
    from gzcount import genfun

    def ran(*args):
        raise AssertionError("a suite ran before the cap was checked")

    monkeypatch.setattr(genfun, "_a_counts", ran)
    name = "pde" if suite == "all" else suite
    assert run_cli(capsys, "verify", suite, "--k", k, "--cap", cap) == (
        EXIT_USAGE, "", f"gzcount: error: cap {cap} too small for {name} at k = {first}\n")


def test_verify_all_checks_each_k_once_with_the_reports_of_each_suite(capsys, monkeypatch):
    from gzcount import genfun

    alone = {}
    for suite in ("pde", "dde"):
        code, out, _ = run_cli(capsys, "verify", suite, "--k", "1:3", "--cap", "8", "--format", "csv")
        assert code == EXIT_OK
        alone[suite] = out.splitlines()[1:]
    calls = []
    residual = genfun.dde_residual

    def counted(series, k):
        calls.append(k)
        return residual(series, k)

    monkeypatch.setattr(genfun, "dde_residual", counted)
    code, out, _ = run_cli(capsys, "verify", "all", "--k", "1:3", "--cap", "8", "--format", "csv")
    assert code == EXIT_OK
    assert calls == [1, 2, 3]
    assert out.splitlines()[1:7] == alone["pde"] + alone["dde"]


@pytest.mark.parametrize("suite", ["pde", "dde"])
def test_verify_one_suite_checks_it_alone(capsys, monkeypatch, suite):
    # Each suite prints only its own reports, and only pde is refused by
    # the pde series bound: lowered to refuse k = 2 at cap 5 (42 entries
    # times 15 bits) but not k = 1 (6 entries), dde still answers.
    from gzcount import genfun

    identity = {"pde": "pde-E", "dde": "dde-G"}[suite]
    lines = [f"{identity} k={k} cap=5: PASS (max |residual| = 0, nonzero terms = 0)" for k in (1, 2)]
    answer = (EXIT_OK, "\n".join(lines + ["all identities verified"]) + "\n", "")
    assert run_cli(capsys, "verify", suite, "--k", "1:2", "--cap", "5") == answer
    monkeypatch.setattr(genfun, "PDE_MAX_ENTRY_BITS", 100)
    refused = (EXIT_LIMIT, "", "gzcount: refused: pde series at cap 5: 42 entries times 15 bits"
               " bounding cap! exceeds the limit 100\n")
    got = run_cli(capsys, "verify", suite, "--k", "1:2", "--cap", "5")
    assert got == (refused if suite == "pde" else answer)


def test_verify_all_refuses_the_pde_series_first_as_verify_pde_does(capsys, monkeypatch):
    # k = 1 at cap 400 is checked; k = 2 is refused before any of its
    # counts is read, with the message verify pde gives.
    from gzcount import genfun

    pde = run_cli(capsys, "verify", "pde", "--k", "1:2", "--cap", "400")
    assert pde == (EXIT_LIMIT, "", "gzcount: refused: pde series at cap 400: 161202 entries"
                   " times 3600 bits bounding cap! exceeds the limit 500000000\n")
    counted = []
    reader = genfun._a_counts

    def read(exponents, cache):
        counted.append(len(exponents))
        return reader(exponents, cache)

    monkeypatch.setattr(genfun, "_a_counts", read)
    assert run_cli(capsys, "verify", "all", "--k", "1:2", "--cap", "400") == pde
    assert counted == [401]


def test_verify_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "pde", "--k", "3:1", "--cap", "8")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "verify", "pde", "--k", "4", "--cap", "2")
    assert code == EXIT_USAGE


# ------------------------------------------------------------------- cache


def test_cache_lifecycle(tmp_path, capsys):
    path = str(tmp_path / "counts.json")

    code, out, _ = run_cli(capsys, "cache", "stats", "--path", path)
    assert code == EXIT_OK
    assert out == "entries 0\nmax-total-degree 0\n"

    code, _, _ = run_cli(capsys, "count", "1 2 3", "--cache", path)
    assert code == EXIT_OK

    code, out, _ = run_cli(capsys, "cache", "load", "--path", path)
    assert code == EXIT_OK
    assert "loaded" in out

    before = (tmp_path / "counts.json").read_text()
    code, _, _ = run_cli(capsys, "cache", "save", "--path", path)
    assert code == EXIT_OK
    assert (tmp_path / "counts.json").read_text() == before

    code, out, _ = run_cli(capsys, "cache", "stats", "--path", path)
    assert code == EXIT_OK
    assert out.startswith("entries ")
    assert out != "entries 0\nmax-total-degree 0\n"


@pytest.fixture
def default_int_digit_limit():
    """Python's default limit on int/str conversion (4,300 digits), restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int/str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_count_above_the_int_digit_limit_prints(capsys, default_int_digit_limit):
    # C(14400, 7200) has 4,333 digits.
    code, out, _ = run_cli(capsys, "count", "1^7200 2^7200", "--method", "recurrence")
    assert code == EXIT_OK
    assert len(out) == 4334 and out.rstrip("\n").isdigit()


def test_cache_value_above_the_int_digit_limit_round_trips(tmp_path, capsys, default_int_digit_limit):
    path = tmp_path / "big.json"
    text = '{\n  "version": 1,\n  "counts": {\n    "2,3": "' + "7" * 5000 + '"\n  }\n}\n'
    path.write_text(text)
    code, out, _ = run_cli(capsys, "cache", "stats", "--path", str(path))
    assert (code, out) == (EXIT_OK, "entries 1\nmax-total-degree 5\n")
    code, out, _ = run_cli(capsys, "cache", "save", "--path", str(path))
    assert (code, out) == (EXIT_OK, f"saved 1 entries to {path}\n")
    assert path.read_text() == text


def test_cache_requires_path(capsys, monkeypatch):
    monkeypatch.delenv("GZCOUNT_CACHE", raising=False)
    code, _, err = run_cli(capsys, "cache", "stats")
    assert code == EXIT_USAGE
    assert "no cache path" in err


def test_cache_env_var_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "envcache.json"
    monkeypatch.setenv("GZCOUNT_CACHE", str(path))
    code, out, _ = run_cli(capsys, "count", "1 2 3")
    assert code == EXIT_OK
    assert out == "7\n"
    assert path.exists()
    code, out, _ = run_cli(capsys, "cache", "stats")
    assert code == EXIT_OK
    assert "entries" in out


def test_cache_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 42, "counts": {}}))
    code, _, err = run_cli(capsys, "cache", "load", "--path", str(path))
    assert code == EXIT_USAGE
    assert "version" in err
    code, _, _ = run_cli(capsys, "count", "1 2 3", "--cache", str(path))
    assert code == EXIT_USAGE
    # True and 1.0 compare equal to 1, yet are not the int version 1.
    for version in [True, 1.0, "1"]:
        path.write_text(json.dumps({"version": version, "counts": {}}))
        code, out, err = run_cli(capsys, "count", "1 2", "--cache", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unsupported cache version {version!r}" in err


def test_cache_errors_echo_at_most_the_start_of_a_long_value(tmp_path, capsys):
    path = tmp_path / "long.json"
    for data in (list(range(200_000)), "x" * 300_000, {"version": list(range(100_000))}):
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "count", "1 2", "--cache", str(path))
        assert (code, out) == (EXIT_USAGE, "") and len(err) < 200, err[:200]
        assert err.endswith("...\n")


@pytest.mark.parametrize("argv", [("count", "1 2 3", "--cache"), ("cache", "stats", "--path")])
def test_deeply_nested_cache_file_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("gzcount: error: cache file is nested too deeply")


@pytest.mark.parametrize("argv", [
    ("count", "1 2 3", "--cache", "{tmp}/missing/c.json"),
    ("count", "1 2 3", "--cache", "{tmp}"),
    ("cache", "load", "--path", "{tmp}/missing.json"),
])
def test_cache_file_errors_are_usage_errors(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "gzcount: error:" in err
    assert "Traceback" not in err
    # The message names the cache path given, not a temporary file.
    assert argv[-1] in err
    assert f".{os.getpid()}.tmp" not in err


CACHED_COMMANDS = [
    ("count", "1 2 3"),
    ("count", "1 2 3", "--method", "all"),
    ("series", "G", "--k", "2", "--cap", "3"),
    ("verify", "dde", "--k", "1:2", "--cap", "4", "--format", "csv"),
    ("g4-explore", "--cap", "2"),
]


@pytest.mark.parametrize("argv", CACHED_COMMANDS)
def test_failed_cache_save_prints_no_answer(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "c.json")
    code, out, err = run_cli(capsys, *argv, "--cache", path)
    assert (code, out) == (EXIT_USAGE, "")
    assert path in err


@pytest.mark.parametrize("argv", CACHED_COMMANDS)
def test_cache_option_keeps_stdout_bytes(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("GZCOUNT_CACHE", raising=False)
    _, plain, _ = run_cli(capsys, *argv)
    code, cached, _ = run_cli(capsys, *argv, "--cache", str(tmp_path / "c.json"))
    assert code == EXIT_OK
    assert cached == plain


def _stamp_old(path):
    """Backdate path's mtime, so a rewrite in the same clock tick shows."""
    os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    return path.read_bytes()


@pytest.mark.parametrize("first, again", [
    (("count", "1 2 3"), ("count", "1 2 3")),
    (("g4-explore", "--cap", "6"), ("verify", "all", "--cap", "4")),
])
def test_run_that_adds_no_entry_leaves_cache_file_untouched(tmp_path, capsys, first, again):
    path = tmp_path / "c.json"
    code, _, _ = run_cli(capsys, *first, "--cache", str(path))
    assert code == EXIT_OK
    before = _stamp_old(path)
    code, out, _ = run_cli(capsys, *again, "--cache", str(path))
    assert code == EXIT_OK
    assert out
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 1_000_000_000


def test_lookups_need_no_writable_cache_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    run_cli(capsys, "count", "1 2 3", "--cache", str(path))

    def read_only(cache, target):
        raise OSError(f"cannot save count cache {target}: Read-only file system")

    monkeypatch.setattr(CountCache, "save", read_only)
    code, out, _ = run_cli(capsys, "count", "1 2 3", "--method", "all", "--cache", str(path))
    assert (code, out.splitlines()[-1]) == (EXIT_OK, "agreement: ok")
    code, _, err = run_cli(capsys, "count", "1 2 3 4", "--cache", str(path))
    assert code == EXIT_USAGE and "Read-only" in err


def test_run_that_adds_entries_rewrites_cache_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    run_cli(capsys, "count", "1 2 3", "--cache", str(path))
    before = _stamp_old(path)
    entries = len(CountCache.load(path))
    code, out, _ = run_cli(capsys, "count", "1 2 2 3 4", "--cache", str(path))
    assert (code, out) == (EXIT_OK, "114\n")
    assert path.read_bytes() != before
    assert path.stat().st_mtime_ns != 1_000_000_000
    assert len(CountCache.load(path)) > entries


@pytest.mark.parametrize("argv, entries", [
    (("count", "1"), 1),
    (("verify", "h", "--cap", "2"), 0),  # verify h reads no counts
])
def test_run_creates_missing_cache_file_even_if_it_adds_nothing(tmp_path, capsys, argv, entries):
    path = tmp_path / "new.json"
    code, _, _ = run_cli(capsys, *argv, "--cache", str(path))
    assert code == EXIT_OK
    assert len(CountCache.load(path)) == entries


def test_commands_without_cache_option_ignore_cache_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    monkeypatch.setenv("GZCOUNT_CACHE", str(path))
    code, out, _ = run_cli(capsys, "table", "3")
    assert code == EXIT_OK
    assert out == "1,,,\n3,3,,\n3,7,3,\n1,3,3,1\n"
    code, out, _ = run_cli(capsys, "cache", "stats", "--path", str(tmp_path / "other.json"))
    assert code == EXIT_OK
    assert out == "entries 0\nmax-total-degree 0\n"
    assert path.read_text() == "not json"


def test_tampered_cache_fails_cross_check(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _, _ = run_cli(capsys, "count", "1 2 3", "--cache", str(path))
    assert code == EXIT_OK

    data = json.loads(path.read_text())
    data["counts"]["1,1,1"] = "8"
    path.write_text(json.dumps(data))

    code, out, err = run_cli(capsys, "count", "1 2 3", "--method", "all", "--cache", str(path))
    assert code == EXIT_VERIFY
    assert "agreement: MISMATCH" in out
    assert "mismatch" in err


# ---------------------------------------------------------------- g4 dump


def test_g4_explore_csv(capsys):
    code, out, _ = run_cli(capsys, "g4-explore", "--cap", "1")
    assert code == EXIT_OK
    assert out == (
        "i1,i2,i3,i4,count\n"
        "0,0,0,0,1\n"
        "0,0,0,1,1\n"
        "0,0,1,0,1\n"
        "0,1,0,0,1\n"
        "1,0,0,0,1\n"
    )


def test_g4_explore_json(capsys):
    code, out, _ = run_cli(capsys, "g4-explore", "--cap", "2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    rows = {tuple(r["mults"]): r["count"] for r in data["rows"]}
    assert rows[(1, 1, 0, 0)] == "2"
    assert rows[(0, 2, 0, 0)] == "1"


def test_g4_explore_negative_cap_is_usage_error(capsys):
    assert run_cli(capsys, "g4-explore", "--cap", "-1") == (
        EXIT_USAGE, "", "gzcount: error: cap must be >= 0, got -1\n")


# ----------------------------------------------------------------- wiring


def test_usage_error_from_argparse(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys)
    assert code == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == EXIT_OK
    assert "count" in out


COUNT_HELP = """\
usage: gzcount count [-h]
                     [--method {a-infinity,fiber,formula,recurrence,oracle,all}]
                     [--cache CACHE] [--limit-dim LIMIT_DIM]
                     [--format {text,json}]
                     partition

positional arguments:
  partition             partition, e.g. '1 2 3', '1,1,2' or '1^2 2 3'

options:
  -h, --help            show this help message and exit
  --method {a-infinity,fiber,formula,recurrence,oracle,all}
  --cache CACHE         persistent count cache file
  --limit-dim LIMIT_DIM
                        oracle ambient-dimension guardrail (default 15)
  --format {text,json}
"""


def test_count_help_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, "count", "--help")
    assert (code, out) == (EXIT_OK, COUNT_HELP)


# Names the package exported when it imported every submodule eagerly.
PACKAGE_EXPORTS = {
    "counting": [
        "CacheFormatError", "CountCache", "MultiplicityVector", "SHARED_CACHE", "TriTable",
        "a_infinity", "a_infinity_unnormalized", "apply_A", "binomial_formula_V",
        "coeff_theorem_V", "count_by_fiber_recursion", "g_polynomial", "h_polynomial",
        "recurrence_V3", "tri_table", "vertex_count",
    ],
    "genfun": [
        "ResidualReport", "build_E", "build_G", "closed_form_E2", "closed_form_G3",
        "closed_form_H", "dde_residual", "g3_roots", "g4_explore", "h_slice", "pde_residual",
        "verify_dde_G", "verify_e2", "verify_g3", "verify_h", "verify_pde_E",
    ],
    "oracle": [
        "DEFAULT_LIMIT_DIM", "DimensionLimitError", "GZShape", "HRep", "OracleError",
        "build_hrep", "enumerate_vertices", "oracle_count",
    ],
    "polyseries": ["Monomial", "SparsePoly", "TruncSeries", "divide_exact", "format_rational"],
}


def test_package_names_resolve_to_their_modules(monkeypatch):
    for module_name, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"gzcount.{module_name}")
        for name in names:
            assert getattr(gzcount, name) is getattr(module, name), name
            assert name in dir(gzcount) and name in gzcount.__all__
    # Every exported name resolves, so a deleted one cannot linger in the list.
    for name in gzcount.__all__:
        getattr(gzcount, name)
    with pytest.raises(AttributeError):
        gzcount.VertexSet
    assert gzcount.build_G is gzcount.genfun.build_G
    # Not cached: a name replaced in its module is seen through the package.
    monkeypatch.setattr("gzcount.genfun.build_G", "patched")
    assert gzcount.build_G == "patched"
    with pytest.raises(AttributeError):
        gzcount.no_such_name


IMPORTED_AFTER = """
import sys
from gzcount.cli import main
for argv in {runs!r}:
    assert main(list(argv)) == 0, argv
print(*sys.modules)
"""

# Modules that only the series, oracle and verify code needs: polyseries
# pulls in fractions and decimal, dataclasses pulls in inspect.
SERIES_ONLY_MODULES = {
    "gzcount.polyseries", "gzcount.genfun", "gzcount.oracle",
    "fractions", "decimal", "dataclasses", "inspect",
}


def _fresh_env():
    env = dict(os.environ, PYTHONPATH=str(Path(gzcount.__file__).parents[1]))
    env.pop("GZCOUNT_CACHE", None)
    return env


def _loaded_modules(tmp_path, code, flags=()):
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=tmp_path, env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _modules_after(tmp_path, *runs, flags=()):
    """Modules a fresh interpreter, started with ``flags``, holds after
    ``main(argv)`` for each of ``runs``."""
    return _loaded_modules(tmp_path, IMPORTED_AFTER.format(runs=runs), flags)


LEAN_RUNS = (
    ("count", "1 2 3"),
    ("count", "1 2 3^2 4", "--format", "json"),
    ("count", "1 2 3^2 4", "--cache", "c.json"),
    ("table", "5"),
    ("table", "4", "--variant", "skew", "--format", "json"),
    ("cache", "stats", "--path", "c.json"),
    ("cache", "load", "--path", "c.json"),
    ("cache", "save", "--path", "c.json"),
    ("g4-explore", "--cap", "4"),
)


# Modules the lean runs need not load: pathlib (with urllib.parse) and
# typing each cost a few ms of start-up.
LEAN_UNWANTED = SERIES_ONLY_MODULES | {"pathlib", "typing"}

# Runs of the polynomial and oracle code, which need not load typing
# either: their annotations name the abstract types of collections.abc.
UNTYPED_RUNS = (
    ("verify", "all", "--cap", "4"),
    ("series", "G3closed", "--cap", "5"),
    ("count", "1 2 3 4 5", "--method", "oracle"),
)


def test_count_table_and_cache_stats_import_no_series_or_oracle_code(tmp_path):
    # An existing cache file, so the runs that name it load it.
    counts = {"1,1": "2", "2,1,1": "16"}
    (tmp_path / "c.json").write_text(json.dumps({"version": 1, "counts": counts}))
    # What a bare interpreter loads depends on the environment (``site``
    # may import packages of its own, pathlib and typing among them), so
    # it is measured, not assumed, and measured again without ``site``.
    for flags in ((), ("-S",)):
        bare = _loaded_modules(tmp_path, "import sys; print(*sys.modules)", flags)
        for argv in LEAN_RUNS:
            # Each run in its own interpreter, so no run hides another's imports.
            added = _modules_after(tmp_path, argv, flags=flags) - bare
            package = {m for m in added if m.split(".")[0] == "gzcount"}
            assert package == {"gzcount", "gzcount.cli", "gzcount.counting", "gzcount.limits",
                               "gzcount.records"}, (flags, argv)
            assert not added & LEAN_UNWANTED, (flags, argv, sorted(added & LEAN_UNWANTED))
    # Without ``site``, nothing but the package could load typing.
    bare = _loaded_modules(tmp_path, "import sys; print(*sys.modules)", ("-S",))
    for argv in UNTYPED_RUNS:
        added = _modules_after(tmp_path, argv, flags=("-S",)) - bare
        assert "typing" not in added, argv


def test_oracle_and_series_commands_import_their_modules(tmp_path):
    loaded = _modules_after(tmp_path, ("count", "1 2 3", "--method", "all"))
    assert "gzcount.oracle" in loaded and "gzcount.genfun" not in loaded
    loaded = _modules_after(tmp_path, ("series", "G", "--k", "2", "--cap", "2"))
    assert "gzcount.genfun" in loaded and "gzcount.oracle" not in loaded
    # Each of these exits 0 (checked in the child) with the polynomial
    # code imported on first use.
    for argv in (("series", "H", "--cap", "3", "--format", "json"),
                 ("series", "E2closed", "--cap", "3", "--cache", "c.json"),
                 ("verify", "all", "--cap", "4")):
        loaded = _modules_after(tmp_path, argv)
        assert {"gzcount.genfun", "gzcount.polyseries"} <= loaded, argv


# Runs of the series, verify and oracle code, each of which once loaded
# dataclasses (and with it inspect) for its record types.
RECORD_RUNS = (
    ("verify", "all", "--cap", "4"),
    ("series", "G3closed", "--cap", "5"),
    ("series", "G", "--k", "3", "--cap", "4"),
    ("count", "1 2 3 4 5", "--method", "all"),
    ("count", "1 2 3 4 5", "--method", "oracle"),
)


def test_series_verify_and_oracle_load_no_dataclasses_or_inspect(tmp_path):
    unwanted = {"dataclasses", "inspect"}
    bare = _loaded_modules(tmp_path, "import sys; print(*sys.modules)")
    for module in ("gzcount.genfun", "gzcount.oracle"):
        added = _loaded_modules(tmp_path, f"import sys, {module}; print(*sys.modules)") - bare
        assert module in added and not added & unwanted, (module, sorted(added & unwanted))
    for argv in RECORD_RUNS:
        added = _modules_after(tmp_path, argv) - bare
        assert not added & unwanted, (argv, sorted(added & unwanted))


# ------------------------------------------------------------ closed stdout


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ("count", "1 2 3"),
    ("count", "1 2 3", "--cache", "c.json"),
    ("table", "60"),
    ("verify", "h", "--cap", "3"),
])
def test_closed_stdout_ends_quietly_with_exit_1(tmp_path, argv, unbuffered):
    # Buffered, a short answer reaches the pipe only when stdout is
    # flushed; unbuffered, the first print fails.
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "gzcount.cli", *argv], cwd=tmp_path,
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_USAGE


def test_reader_that_leaves_after_one_line_ends_quietly(tmp_path):
    # gzcount table 100 | head -1: the output (about 220 kB) is larger than
    # a pipe buffer, so the writer is still writing when the reader goes.
    proc = subprocess.Popen([sys.executable, "-m", "gzcount.cli", "table", "100"], cwd=tmp_path,
                            env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_USAGE
    assert first == b"1" + b"," * 100 + b"\n"
    assert err == b""
