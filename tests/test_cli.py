import argparse
import hashlib
import io
import json
import runpy
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import hopfcomb.limits
from hopfcomb import cli
from hopfcomb.axioms import HELD_TOP_LABELS, sweep_guard
from hopfcomb.cli import main
from hopfcomb.limits import LimitExceeded, Limits
from hopfcomb.words import family_size

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the benchmark's recorded `verify` outputs at the default degree; read only
GOLDEN_SWEEP = PERFBENCH / "golden" / "sweep.json"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_product_text_output():
    code, out, _ = run_cli("product", "--algebra", "eqsym", "--basis", "M", "1", "22")
    assert code == 0
    assert out.strip() == "M[133] + M[223] + M[323]"


def test_a_partition_is_read_as_a_multiset_of_parts():
    # as {2|1} is read as the set partition {1|2}, (1,2) is read as (2,1)
    unsorted = run_cli("product", "--algebra", "sym-embed", "(1,2)", "(1)")
    assert unsorted == run_cli("product", "--algebra", "sym-embed", "(2,1)", "(1)")
    assert unsorted == (0, "2*ul[(2,1,1)]\n", "")
    assert (run_cli("product", "--algebra", "piqsym", "{2|1}", "{1}")
            == run_cli("product", "--algebra", "piqsym", "{1|2}", "{1}"))


def test_output_is_deterministic():
    first = run_cli("product", "--algebra", "sgqsym", "--basis", "M", "12", "321")
    second = run_cli("product", "--algebra", "sgqsym", "--basis", "M", "12", "321")
    assert first == second
    assert "3*M[52341]" in first[1]


def test_product_json_output():
    code, out, _ = run_cli(
        "product", "--algebra", "eqsym", "--basis", "M", "1", "22", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "eqsym"
    assert {"label": "133", "coeff": "1"} in payload["terms"]
    assert len(payload["terms"]) == 3


def test_coproduct_output():
    code, out, _ = run_cli("coproduct", "--algebra", "eqsym", "--basis", "M", "4232277")
    assert code == 0
    assert "M[42322](x)M[22]" in out


def test_qdeform_coproduct_output():
    code, out, _ = run_cli("coproduct", "--algebra", "fqsym-q", "--basis", "F", "21")
    assert code == 0
    assert "(q)*F[1](x)F[1]" in out


def test_count_families():
    assert run_cli("count", "--family", "parking-stalactic", "5")[1].strip() == "501"
    assert run_cli("count", "--family", "connected-endofunctions", "4")[1].strip() == "197"
    assert run_cli("count", "--family", "free-lie-dims", "4")[1].strip() == "223"
    assert run_cli("count", "--family", "unlabelled-parking-graphs", "4")[1].strip() == "19"
    assert run_cli("count", "--family", "sylvester-q-classes", "5")[1].strip() == "42"


@pytest.mark.parametrize("family, count", [
    ("sylvester-q-classes", "4862"), ("hypoplactic-q-classes", "256")])
def test_census_counts_answer_at_the_permutation_bound(family, count):
    start = time.perf_counter()
    assert run_cli("count", "--family", family, "9") == (0, count + "\n", "")
    assert time.perf_counter() - start < 1


def test_stalactic_counts_at_zero_and_at_large_sizes():
    for family in ("parking", "endofunctions", "initial-words"):
        assert run_cli("count", "--family", f"{family}-stalactic", "0") == (0, "1\n", "")
    start = time.perf_counter()
    code, out, _ = run_cli("count", "--family", "parking-stalactic", "200")
    assert code == 0 and int(out) > 0
    assert time.perf_counter() - start < 1.0


def test_triangle_output():
    code, out, _ = run_cli("triangle", "--name", "lah", "4")
    assert code == 0
    assert out.splitlines() == ["1", "1 2", "1 6 6", "1 12 36 24"]
    code, out, _ = run_cli("triangle", "--name", "endt", "5")
    assert out.splitlines()[-1] == "5 80 360 480 120"


def test_more_golden_products_through_cli():
    code, out, _ = run_cli(
        "product", "--algebra", "piqsym", "{1,2,4|3}", "{1}")
    assert code == 0
    assert out.strip() == (
        "upi[{1,2,4|3|5}] + 2*upi[{1,2,5|3|4}] + upi[{1,3,5|2|4}] + upi[{1|2,3,5|4}]"
    )
    code, out, _ = run_cli("product", "--algebra", "sym-embed", "(3,3,2,1)", "(3,1,1)")
    assert out.strip() == "9*ul[(3,3,3,2,1,1,1)]"
    code, out, _ = run_cli("product", "--algebra", "qsym-embed", "(1,3,1)", "(1,2)")
    assert "2*uq[(1,1,2,3,1)]" in out
    code, out, _ = run_cli("product", "--algebra", "cpqsym", "1", "221")
    assert out.strip() == "Mpa[1332] + Mpa[2214] + Mpa[2231] + Mpa[3231]"
    code, out, _ = run_cli("product", "--algebra", "phisym", "--basis", "Y", "(3)", "(2)")
    assert out.strip() == "Y[(3,2)] + 12*Y[(5)]"
    code, out, _ = run_cli("count", "--family", "initial-words-stalactic", "6")
    assert out.strip() == "1631"
    code, out, _ = run_cli("count", "--family", "endofunctions-stalactic", "5")
    assert out.strip() == "1045"


def test_forest_rules_answer_by_closed_form():
    assert run_cli("coproduct", "--algebra", "forest", "1") == (
        0, "M[()](x)M[] + M[](x)M[()]\n", "")
    assert run_cli("coproduct", "--algebra", "forest", "1123") == (
        0, "M[(((())))](x)M[] + M[](x)M[(((())))]\n", "")
    for label in ("111111", "1111111"):  # 6 + 6 and 7 + 7: a star squared
        star = "(" + "()" * (len(label) - 1) + ")"
        start = time.perf_counter()
        result = run_cli("product", "--algebra", "forest", label, label)
        assert time.perf_counter() - start < 0.1
        assert result == (0, f"2*M[{star}{star}]\n", "")


def test_insert_output():
    code, out, _ = run_cli("insert", "cabccdbdd")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P: cccabbddd"
    assert lines[-1] == "Q: {1,4,5|2|3,7|6,8,9}"


def test_insert_writes_a_numeric_p_word_as_words_are_written():
    assert run_cli("insert", "12,3") == (0, "P: 12,3\n  12 3\nQ: {1|2}\n", "")
    assert run_cli("insert", "123")[1].splitlines()[0] == "P: 123"
    assert run_cli("insert", "10,2,10")[1].splitlines()[0] == "P: 10,10,2"
    assert run_cli("insert", "cba")[1].splitlines()[0] == "P: cba"
    assert run_cli("insert", "") == (0, "P: \nQ: {}\n", "")


def test_free_lie_dims_is_counted_in_integers_at_large_sizes():
    start = time.perf_counter()
    code, out, err = run_cli("count", "--family", "free-lie-dims", "200")
    assert (code, err) == (0, "") and int(out) > 0
    assert time.perf_counter() - start < 1


def test_pair_outputs():
    assert run_cli("pair", "--algebra", "eqsym", "--basis", "M", "12", "12")[1].strip() == "1"
    assert run_cli("pair", "--algebra", "eqsym", "--basis", "M", "12", "21")[1].strip() == "0"
    code, out, _ = run_cli("pair", "--algebra", "eqsym", "--basis", "M", "12", "321", "52341")
    assert code == 0 and out.strip() == "3"


def test_pair_of_three_labels_needs_a_product():
    for argv in (["pair", "(1)", "(1)", "(2)"], ["product", "(1)", "(2)"]):
        result = run_cli(argv[0], "--algebra", "qsym-q", "--basis", "M", *argv[1:])
        assert result == (2, "", "no product registered for qsym-q:M\n")


def test_every_query_pool_request_prints_its_recorded_output():
    """The benchmark's request pool against its recorded exit codes and stdout
    digests. Both files are only read: `runpy` writes no bytecode."""
    queries = runpy.run_path(str(PERFBENCH / "queries.py"))
    golden = json.loads((PERFBENCH / "golden" / "query.json").read_text())
    pool = [argv for entries in queries["build_pool"]().values() for argv in entries]
    assert len(pool) == len(golden) == 1128
    for argv in pool:
        code, out, _ = run_cli(*argv)
        want = golden[queries["key"](argv)]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (want["code"], want["sha256"]), argv


def test_refusals_usage_errors_and_help_keep_their_bytes(monkeypatch):
    """Exit code, stdout and stderr of the refusals the handlers print, the
    parser's usage errors (no --format on pair, count, triangle or verify) and
    every --help, recorded from the if-chain dispatcher the handlers replaced.
    Usage and help text is argparse's own wording, which differs between
    Python versions, so it is compared on the version it was recorded with."""
    pinned = json.loads((Path(__file__).parent / "cli_pinned.json").read_text())
    cases = dict(pinned["handlers"])
    if "%d.%d" % sys.version_info[:2] == pinned["argparse_python"]:
        cases.update(pinned["argparse"])
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert {command: list(run_cli(*shlex.split(command))) for command in cases} == cases


def _parsed(parse, argv):
    """The namespace, or the exit code and printed text of a refusal or help."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_a_command_request_parses_as_the_top_parser_parses_it(monkeypatch):
    """`cli._parse` sends a request that starts with a command straight to
    that command's parser; it must give what the top parser's `parse_args`
    gives: every request of the benchmark's pool (read only), every pinned
    case, and the argv shapes the top parser treats on its own."""
    queries = runpy.run_path(str(PERFBENCH / "queries.py"))
    pool = [argv for entries in queries["build_pool"]().values() for argv in entries]
    pinned = json.loads((Path(__file__).parent / "cli_pinned.json").read_text())
    edges = ["product --alg eqsym --basis M 1 1", "coproduct --algebra eqsym 12 extra more",
             "count --family parking 3 --bogus", "-- count --family parking 3",
             "count -- --family parking 3", "count --family=parking 3", "verify --help",
             "product", "nope --algebra eqsym", "-h", "--he"]
    cases = pool + [shlex.split(c) for c in [*pinned["handlers"], *pinned["argparse"], *edges]]
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = cli._build_parser()
    parsed = 0
    for argv in cases:
        direct = _parsed(cli._parse, argv)
        assert direct == _parsed(parser.parse_args, argv), argv
        parsed += isinstance(direct, argparse.Namespace)
    assert parsed > len(pool) == 1128  # the pool and the pinned handler refusals parse


def test_convert_phisym():
    code, out, _ = run_cli("convert", "--algebra", "phisym", "--from", "phi", "--to", "Sp", "312")
    assert code == 0 and out.strip() == "Sp[312]"
    code, out, _ = run_cli("convert", "--algebra", "phisym", "--from", "Ss", "--to", "phi", "2431")
    assert code == 0
    assert "phi[2413]" in out


def test_convert_classical():
    code, out, _ = run_cli("convert", "--algebra", "sym-classical", "--from", "h", "--to", "m", "(2)")
    assert code == 0 and out.strip() == "m[(1,1)] + m[(2)]"


def test_verify_exit_zero_and_report():
    code, out, _ = run_cli("verify", "--algebra", "phisym", "--max-degree", "3")
    assert code == 0
    assert "cocommutativity: yes" in out
    code, out, _ = run_cli("verify", "--algebra", "eqsym", "--max-degree", "3")
    assert code == 0
    assert "duality-consistency: ok" in out
    code, out, _ = run_cli("verify", "--algebra", "fqsym-q", "--max-degree", "3")
    assert code == 0
    assert "twisted-morphism: ok" in out


def test_usage_errors_exit_two():
    code, _, _ = run_cli("product", "--algebra", "no-such-algebra", "--basis", "M", "1", "1")
    assert code == 2
    code, _, err = run_cli("product", "--algebra", "eqsym", "--basis", "Z", "1", "1")
    assert code == 2
    code, _, err = run_cli("product", "--algebra", "qsym-q", "--basis", "M", "(1)", "(2)")
    assert code == 2  # no product registered on the quantum quasi-symmetric side


def test_limit_guard_exit_two(monkeypatch):
    code, _, err = run_cli("count", "--family", "parking", "9")
    assert code == 2
    assert "limit" in err
    monkeypatch.setenv("HOPFCOMB_MAX_DEGREE", "2")
    code, out, _ = run_cli("verify", "--algebra", "sgqsym")
    assert code == 0


# each enumerated family's count, its bound and the count at the bound
BOUNDED_COUNTS = [
    ("endofunctions", "endofunctions", 8, 16777216),
    ("permutations", "permutations", 9, 362880),
    ("parking", "parking", 8, 4782969),
    ("nondecreasing-parking", "nondecreasing_parking", 14, 2674440),
    ("set-partitions", "set_partitions", 11, 678570),
    ("initial-words", "initial_words", 8, 545835),
    ("involutions", "involutions", 10, 9496),
    ("unlabelled-parking-graphs", "parking", 8, 951),
]


@pytest.mark.parametrize("family, knob, bound, count", BOUNDED_COUNTS)
def test_counts_at_the_bound_are_quick_and_refuse_one_more(family, knob, bound, count):
    start = time.perf_counter()
    assert run_cli("count", "--family", family, str(bound)) == (0, f"{count}\n", "")
    assert time.perf_counter() - start < 1
    assert run_cli("count", "--family", family, str(bound + 1)) == (2, "", (
        f"limit exceeded: {knob} enumeration at n={bound + 1} exceeds configured bound "
        f"{bound} (Limits.{knob})\n"))
    assert run_cli("count", "--family", family, "0") == (0, "1\n", "")


def test_in_process_calls_share_one_parser_and_answer_as_a_fresh_one(monkeypatch):
    requests = [
        ["product", "--algebra", "eqsym", "--basis", "M", "1", "22"],
        ["count", "--family", "parking", "4"],
        ["count", "--family", "no-such-family", "4"],
        ["coproduct", "--algebra", "eqsym", "--format", "json", "4232277"],
        ["verify"],
        ["product", "--algebra", "sgqsym", "--basis", "M", "12", "321"],
        ["count", "--family", "involutions", "6"],
    ]
    shared = [run_cli(*argv) for argv in requests]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [run_cli(*argv) for argv in requests] == shared


@pytest.mark.parametrize("argv, knob", [
    ("count --family parking 9", "Limits.parking"),
    ("verify --algebra eqsym --max-degree 9", "Limits.endofunctions"),
])
def test_limit_messages_name_their_knob(argv, knob):
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")
    assert err.endswith(f"exceeds configured bound 8 ({knob})\n")


# closed-form counts, which enumerate nothing that could refuse a negative size
NEGATIVE_COUNTS = [
    "count --family parking-stalactic -1",
    "count --family parking-stalactic -2",
    "count --family endofunctions-stalactic -1",
    "count --family initial-words-stalactic -3",
    "count --family hypoplactic-q-classes -1",
]


@pytest.mark.parametrize("argv", [
    "insert 0",
    "insert 2,0,1",
    "insert 1,-3",
    "triangle --name lah -1",
    "triangle --name pascal -5",
    *NEGATIVE_COUNTS,
])
def test_out_of_range_input_exits_two(argv):
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS)
def test_closed_form_counts_reject_negative_sizes(argv):
    assert run_cli(*argv.split()) == (2, "", "error: n must be nonnegative\n")


@pytest.mark.parametrize("algebra, degree", [
    ("sgqsym", 10), ("piqsym", 12), ("fqsym-q", 10),
    ("qsym-embed", 11), ("qsym-embed", 40), ("sym-embed", 15),
])
def test_verify_refuses_degrees_beyond_the_family_bound(algebra, degree):
    start = time.perf_counter()
    code, out, err = run_cli("verify", "--algebra", algebra, "--max-degree", str(degree))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("algebra, degree", [
    ("eqsym", 7), ("eqsym", 8), ("cpqsym", 7), ("cpqsym", 8), ("piqsym", 10), ("wsym", 11),
])
def test_verify_refuses_sweeps_beyond_the_case_budget(algebra, degree):
    # each degree passes its family bound; the sweep's case count does not
    start = time.perf_counter()
    code, out, err = run_cli("verify", "--algebra", algebra, "--max-degree", str(degree))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")
    assert "(Limits.sweep_cases)" in err
    assert time.perf_counter() - start < 5


def test_every_verifiable_algebra_sweeps_within_the_budget_at_the_default_degree():
    for algebra in cli.VERIFIABLE:
        sweep_guard(cli._lookup(algebra, None).family.name, Limits().max_degree)


def test_sweep_case_count_is_labels_pairs_and_triples(monkeypatch):
    def budget(cases):
        monkeypatch.setattr(hopfcomb.limits, "LIMITS", Limits(sweep_cases=cases))

    # endofunctions of sizes 1..6: 1, 4, 27, 256, 3125, 46656
    budget(61524)
    with pytest.raises(LimitExceeded, match="has 61525 cases"):
        sweep_guard("endofunctions", 6)
    budget(61525)
    sweep_guard("endofunctions", 6)
    # permutations to degree 2: labels 1 + 2, pairs (1, 1), triples none
    budget(3)
    with pytest.raises(LimitExceeded, match="has 4 cases"):
        sweep_guard("permutations", 2)


@pytest.mark.parametrize("family", ["hypoplactic-q-classes", "sylvester-q-classes"])
def test_census_counts_refuse_sizes_beyond_the_permutation_bound(family):
    start = time.perf_counter()
    code, out, err = run_cli("count", "--family", family, "10")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("limit exceeded: ")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, env, knob", [
    (["--max-degree", "0"], None, "--max-degree"),
    (["--max-degree", "-2"], None, "--max-degree"),
    (["--limit", "0"], None, "--limit"),
    (["--limit", "-1"], None, "--limit"),
    (["--max-degree", "0", "--limit", "3"], None, "--max-degree"),
    ([], "0", "HOPFCOMB_MAX_DEGREE"),
    ([], "-4", "HOPFCOMB_MAX_DEGREE"),
])
def test_verify_rejects_degrees_below_one(monkeypatch, argv, env, knob):
    if env is None:
        monkeypatch.delenv("HOPFCOMB_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("HOPFCOMB_MAX_DEGREE", env)
    code, out, err = run_cli("verify", "--algebra", "sgqsym", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: " + knob)


def test_verify_degree_one_and_explicit_over_environment(monkeypatch):
    monkeypatch.setenv("HOPFCOMB_MAX_DEGREE", "0")
    code, out, _ = run_cli("verify", "--algebra", "sgqsym", "--max-degree", "1")
    assert code == 0 and "associativity: ok" in out
    code, out, _ = run_cli("verify", "--algebra", "sgqsym", "--limit", "2")
    assert code == 0 and "duality-consistency: ok" in out


def test_malformed_max_degree_variable_only_reaches_verify(monkeypatch):
    monkeypatch.setenv("HOPFCOMB_MAX_DEGREE", "abc")
    code, out, err = run_cli("count", "--family", "parking", "3")
    assert (code, out, err) == (0, "16\n", "")
    code, out, err = run_cli("product", "--algebra", "eqsym", "--basis", "M", "1", "1")
    assert code == 0 and err == ""
    code, out, err = run_cli("coproduct", "--algebra", "eqsym", "--basis", "M", "11")
    assert code == 0 and err == ""
    code, out, err = run_cli("verify", "--algebra", "sgqsym")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: HOPFCOMB_MAX_DEGREE")


def test_verify_failure_output_eqsym(monkeypatch):
    from dataclasses import replace

    from hopfcomb.lincomb import LinComb

    record = cli._REGISTRY["eqsym:M"]
    product_M = record.product

    def drop_one_term(f, g):
        x = product_M(f, g)
        if (f, g) != ((1,), (1, 1)):
            return x
        terms = dict(x.terms)
        del terms[max(terms)]
        return LinComb(x.kind, terms)

    # the registry's records are built at import: swap the record, not the module's rule
    monkeypatch.setitem(cli._REGISTRY, "eqsym:M", replace(record, product=drop_one_term))
    code, out, err = run_cli("verify", "--algebra", "eqsym", "--max-degree", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "associativity: ok",
        "unit: ok",
        "coassociativity: ok",
        "counit: ok",
        "compatibility: FAIL at ((1,), (1, 1))",
        "commutativity: no",
        "cocommutativity: no",
        "duality-consistency: FAIL at ((1,), (1, 1), (1, 2, 2))",
    ]


def _drop_fqsym_q_product_terms(monkeypatch, broken):
    """Swap the fqsym-q record for one whose product drops its largest term
    at each pair of ``broken``."""
    from dataclasses import replace

    from hopfcomb.lincomb import LinComb

    record = cli._REGISTRY["fqsym-q:F"]
    product_F = record.product

    def drop_one_term(a, b):
        x = product_F(a, b)
        if (a, b) not in broken:
            return x
        terms = dict(x.terms)
        del terms[max(terms)]
        return LinComb(x.kind, terms)

    monkeypatch.setitem(cli._REGISTRY, "fqsym-q:F", replace(record, product=drop_one_term))


def test_verify_failure_output_fqsym_q(monkeypatch):
    _drop_fqsym_q_product_terms(monkeypatch, {((1,), (2, 1))})
    code, out, err = run_cli("verify", "--algebra", "fqsym-q", "--max-degree", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "twisted-morphism: FAIL at ((1,), (2, 1))",
        "q0-cocommutativity: yes",
    ]


def test_verify_fqsym_q_reports_only_the_first_twisted_failure(monkeypatch):
    _drop_fqsym_q_product_terms(monkeypatch, {((2, 1), (1,)), ((1,), (2, 1))})
    code, out, err = run_cli("verify", "--algebra", "fqsym-q", "--max-degree", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "twisted-morphism: FAIL at ((1,), (2, 1))",
        "q0-cocommutativity: yes",
    ]


def test_verify_ccqsym_fails_on_a_dual_coproduct_without_its_counit_term(monkeypatch):
    """Duality checks the counit rows: a dual coproduct that loses (z, ())
    fails at its first target, though every row with two nonempty sides
    still matches."""
    from dataclasses import replace

    from hopfcomb.lincomb import LinComb

    record = cli._REGISTRY["ccqsym:S"]
    coproduct_S = record.coproduct

    def drop_right_unit(p):
        x = coproduct_S(p)
        return LinComb(x.kind, {pair: c for pair, c in x.terms.items() if pair != (p, ())})

    monkeypatch.setitem(cli._REGISTRY, "ccqsym:S", replace(record, coproduct=drop_right_unit))
    with open(GOLDEN_SWEEP) as fh:
        expected = json.load(fh)["ccqsym"]["lines"]
    code, out, err = run_cli("verify", "--algebra", "ccqsym")
    assert (code, err) == (1, "")
    assert out.splitlines() == expected[:-1] + ["duality-consistency: FAIL at ((), (1,), (1,))"]


# Labels outside their basis's family: left unchecked, some of these crash
# with a traceback and some get an answer outside the algebra.
@pytest.mark.parametrize("argv", [
    "product --algebra eqsym --basis M 1 9",
    "product --algebra cpqsym 3 1",
    "product --algebra wsym {1,3} {1}",
    "coproduct --algebra ccqsym --basis S 21",
    "product --algebra sgqsym --basis M 11 1",
    "coproduct --algebra sgqsym 22",
    "product --algebra piqsym {1|1} {1}",
    "product --algebra qsym-embed (0,1) (1)",
    "product --algebra phisym --basis Y (0) (1)",
    "product --algebra ncsf (0) (1)",
    "coproduct --algebra qsym-q (2,0)",
    "coproduct --algebra fqsym-q 11",
    "pair --algebra eqsym --basis M 12 13",
    "convert --algebra sym-classical --from h --to m (0)",
    "product --algebra parkgraph 33 1",
    "coproduct --algebra parkgraph 0",
    "product --algebra forest 21 1",
])
def test_wrong_family_labels_exit_two(argv):
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: not ")
    assert "Traceback" not in err


# A letter that is not a number names the label, not Python's int(); a
# partition, though read as a composition, is refused as a partition.
@pytest.mark.parametrize("argv, message", [
    ("product --algebra eqsym 1a 1", "not a word: '1a'"),
    ("product --algebra eqsym 1,a 1", "not a word: '1,a'"),
    ("product --algebra wsym {1,a} {1}", "not a set partition: '{1,a}'"),
    ("coproduct --algebra qsym-q (1,a)", "not a composition: '(1,a)'"),
    ("product --algebra sym-embed (1) (2,a)", "not a partition: '(2,a)'"),
    ("product --algebra sym-embed 2 (1)", "not a partition: '2'"),
    ("product --algebra parkgraph 1a 1", "not a word: '1a'"),
])
def test_non_numeric_letters_are_refused_with_the_label(argv, message):
    assert run_cli(*argv.split()) == (2, "", f"error: {message}\n")


def test_unknown_basis_message_has_no_repr_quotes():
    assert run_cli("product", "--algebra", "sgqsym", "--basis", "Y", "1", "1") == (
        2, "", "error: unknown basis 'Y' for algebra 'sgqsym'\n")


# Cycle text with an unclosed or stray chunk, or a letter 0, is refused, not
# cut short ("(12" is not the permutation 1, nor "(12)(34" 213, nor "(10)" 1).
@pytest.mark.parametrize("text", [
    "(12", "(12)(34", "(1)(1", "(1,)", "(12)x(3)", "(0)", "(10)", "(1,0)", "(2,01)"])
def test_malformed_cycle_text_exits_two(text):
    code, out, err = run_cli("coproduct", "--algebra", "phisym", text)
    assert (code, out) == (2, "")
    assert err == f"error: not cycle notation: {text!r}\n"


# kind -> (a degree-2 label, its printed text, a label outside the
# family).  Forest and parking-graph labels are entered through a
# parking function and print as their certificates.
LABELS = {
    "eqsym:M": ("21", "21", "13"),
    "eqsym:S": ("11", "11", "03"),
    "sgqsym:M": ("21", "21", "11"),
    "sgqsym:S": ("12", "12", "22"),
    "piqsym:upi": ("{1|2}", "{1|2}", "{1|1}"),
    "wsym:Mw": ("{1,2}", "{1,2}", "{1,3}"),
    "qsym-embed:uq": ("(1,1)", "(1,1)", "(0,2)"),
    "sym-embed:ul": ("(2)", "(2)", "(2,0)"),
    "ncsf:V": ("(2)", "(2)", "(0)"),
    "phisym:phi": ("21", "21", "11"),
    "phisym:Sp": ("12", "12", "11"),
    "phisym:Ss": ("21", "21", "22"),
    "phisym:Y": ("(1,1)", "(1,1)", "(0,2)"),
    "cpqsym:Mpa": ("21", "21", "22"),
    "ccqsym:Mpa": ("11", "11", "21"),
    "ccqsym:S": ("12", "12", "22"),
    "forest:M": ("12", "()()", "21"),
    "parkgraph:N": ("21", "<(),()>", "33"),
    "fqsym-q:F": ("21", "21", "11"),
    "qsym-q:M": ("(2)", "(2)", "(2,0)"),
    "ncsf-q:S": ("(1,1)", "(1,1)", "(1,-1)"),
}


def test_labels_cover_the_registry():
    assert set(LABELS) == set(cli._REGISTRY)


def test_registry_keys_are_the_kinds_of_their_records():
    for kind, spec in cli._REGISTRY.items():
        assert spec.kind == kind
        assert cli._lookup(*kind.split(":")) is spec


@pytest.mark.parametrize("key", sorted(LABELS))
def test_registered_labels_round_trip_and_reject_other_families(key):
    family = cli._REGISTRY[key].family
    text, printed, wrong = LABELS[key]
    label = family.parse(text)
    assert family.degree(label) == 2
    assert family.text(label) == printed
    if printed == text:
        assert family.parse(printed) == label
    with pytest.raises(ValueError):
        family.parse(wrong)


def _basis(algebra):
    return cli._lookup(algebra, None).kind.split(":")[1]


def test_default_bases():
    assert {algebra: _basis(algebra) for algebra in cli.ALGEBRAS} == {
        "eqsym": "M", "sgqsym": "M", "phisym": "phi", "cpqsym": "Mpa", "ccqsym": "Mpa",
        "fqsym-q": "F", "piqsym": "upi", "wsym": "Mw", "qsym-embed": "uq",
        "sym-embed": "ul", "ncsf": "V", "forest": "M", "parkgraph": "N",
        "qsym-q": "M", "ncsf-q": "S",
    }


@pytest.mark.parametrize("algebra", cli.ALGEBRAS)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_default_basis_prints_as_named_basis(algebra, fmt):
    basis = _basis(algebra)
    text = LABELS[f"{algebra}:{basis}"][0]
    for command, labels in (("product", [text, text]), ("coproduct", [text])):
        argv = [command, "--algebra", algebra, "--format", fmt, *labels]
        assert run_cli(*argv) == run_cli(*argv, "--basis", basis)


def test_verifiable_algebras_keep_the_sweep_order():
    assert cli.VERIFIABLE == [
        "eqsym", "sgqsym", "piqsym", "wsym", "qsym-embed", "sym-embed",
        "phisym", "cpqsym", "ccqsym", "fqsym-q", "ncsf-q",
    ]
    assert list(cli._VERIFY) == ["fqsym-q"]


NCSF_Q_REPORT = [
    "associativity: ok", "unit: ok", "coassociativity: ok", "counit: ok",
    "compatibility: ok", "commutativity: no", "cocommutativity: no",
]


def test_verify_sweeps_the_twisted_ncsf_record(monkeypatch):
    monkeypatch.delenv("HOPFCOMB_MAX_DEGREE", raising=False)
    code, out, err = run_cli("verify", "--algebra", "ncsf-q")
    assert (code, out.splitlines(), err) == (0, NCSF_Q_REPORT, "")
    # without its twist the record is no bialgebra, and verify says where
    monkeypatch.setitem(cli._REGISTRY, "ncsf-q:S", replace(cli._REGISTRY["ncsf-q:S"], twist=None))
    code, out, err = run_cli("verify", "--algebra", "ncsf-q")
    assert code == 1 and err == ""
    assert "compatibility: FAIL at ((1,), (1,))" in out.splitlines()


@pytest.mark.parametrize("algebra", cli.VERIFIABLE)
def test_verify_passes_at_degree_three(algebra):
    code, out, err = run_cli("verify", "--algebra", algebra, "--max-degree", "3")
    assert (code, err) == (0, "")
    assert out and "FAIL" not in out


# the algebras whose default-degree sweep holds its top degree
HELD_AT_THE_DEFAULT_DEGREE = [
    "sgqsym", "piqsym", "wsym", "qsym-embed", "sym-embed", "phisym", "ccqsym", "fqsym-q",
]


@pytest.mark.parametrize("algebra", HELD_AT_THE_DEFAULT_DEGREE)
def test_verify_at_the_default_degree_prints_the_recorded_report(algebra, monkeypatch):
    monkeypatch.delenv("HOPFCOMB_MAX_DEGREE", raising=False)
    degree = Limits().max_degree
    assert family_size(cli._lookup(algebra, None).family.name, degree) <= HELD_TOP_LABELS
    with open(GOLDEN_SWEEP) as fh:
        expected = json.load(fh)[algebra]
    code, out, err = run_cli("verify", "--algebra", algebra)
    assert (code, out.splitlines(), err) == (expected["code"], expected["lines"], "")
