"""Fuzzing the command line in-process.

Every request either gets an answer (exit 0, nothing on stderr) or is
refused with exit 2; a refusal by ``cli.main`` is one stderr line, and
argparse's own refusal ends in one ``error:`` line after its usage.  No
exception escapes.  Label text is drawn from the label alphabets, and most
of it is a label printed by a family, so that requests reach the rules.
"""
import io
import string
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from hopfcomb import cli
from hopfcomb.words import FAMILIES

# a label of size at most 4 keeps every rule fast enough: the slowest, a
# product of cycle types in phisym's Y basis, takes about 10 ms
ALPHABET = string.digits + ",(){}|" + string.ascii_letters
RAW_TEXT = st.text(ALPHABET, max_size=4)


def _printed(family):
    """Text of a label of size at most 4 of ``family``, as the family prints it."""
    return st.integers(0, 4).flatmap(
        lambda n: st.sampled_from(list(family.labels(n)))).map(family.text)


LABEL = st.one_of(RAW_TEXT, *(_printed(family) for family in FAMILIES.values()))
FORMAT = st.sampled_from([[], ["--format", "text"], ["--format", "json"]])


@st.composite
def _algebra_request(draw, command, sizes):
    """``command`` on a registered basis, named or by default, or on a basis
    name drawn as text; labels lean towards those of the basis's family."""
    kind = draw(st.sampled_from(sorted(cli._REGISTRY)))
    algebra, basis = kind.split(":")
    how = draw(st.integers(0, 3))  # default basis, named basis, or a name drawn as text
    basis = [] if how < 2 else ["--basis", basis if how == 2 else draw(RAW_TEXT)]
    family = cli._REGISTRY[kind].family
    label = LABEL if family.labels is None else LABEL | _printed(family)
    fmt = draw(FORMAT) if command != "pair" else []
    return [command, "--algebra", algebra, *basis, *fmt,
            *draw(st.lists(label, min_size=sizes[0], max_size=sizes[1]))]


REQUESTS = st.one_of(
    _algebra_request("product", (2, 2)),
    _algebra_request("coproduct", (1, 1)),
    _algebra_request("pair", (0, 4)),
    st.builds(lambda src, dst, fmt, label: ["convert", "--algebra", "phisym", "--from", src,
                                            "--to", dst, *fmt, label],
              st.sampled_from(["phi", "Sp", "Ss"]) | RAW_TEXT,
              st.sampled_from(["phi", "Sp", "Ss"]) | RAW_TEXT, FORMAT, LABEL),
    st.builds(lambda family, n: ["count", "--family", family, str(n)],
              st.sampled_from(sorted(cli._COUNTS)), st.integers(-2, 30)),
    st.builds(lambda word, fmt: ["insert", word, *fmt], LABEL, FORMAT),
    st.builds(lambda name, rows: ["triangle", "--name", name, str(rows)],
              st.sampled_from(["narayana", "lah", "tw", "endt", "pascal", "arr"]),
              st.integers(-2, 12)),
    st.builds(lambda alg, knob, d: ["verify", "--algebra", alg, knob, str(d)],
              st.sampled_from(cli.VERIFIABLE), st.sampled_from(["--max-degree", "--limit"]),
              st.integers(-1, 3)),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    argparse_exit = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, argparse_exit = exc.code, True
    return code, argparse_exit, err.getvalue()


@settings(max_examples=600, derandomize=True, deadline=None)
@given(REQUESTS)
def test_every_request_is_answered_or_refused_in_one_line(argv):
    code, argparse_exit, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    elif argparse_exit:
        assert err.splitlines()[-1].startswith("hopfcomb "), (argv, err)
        assert ": error: " in err.splitlines()[-1], (argv, err)
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        # the message is the library's, not Python's repr or int() text
        assert "invalid literal" not in err and not err.startswith('error: "'), (argv, err)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), LABEL)
def test_accepted_label_text_round_trips(name, text):
    family = FAMILIES[name]
    try:
        label = family.parse(text)
    except ValueError:
        return
    assert family.parse(family.text(label)) == label, (name, text)
