"""One pass of each workload, with its correctness checks.

A pass runs in a fresh interpreter (see child.py).  It records every timed
request as (name, seconds) and returns a `Pass` whose `verify()` runs the
checks afterwards, outside the timed region and after a traced run has read
its counters; a wrong answer is a failed check, never a fast request.

Only public entry points of hopfcomb are called: `cli.main`, the axiom and
duality checkers, the product and coproduct rules and the oracles.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter
from typing import Callable

import queries

GOLDEN = Path(__file__).resolve().parent / "golden"


class Pass:
    def __init__(self):
        self.requests: list[tuple[str, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.verify: Callable[[], None] = lambda: None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_call(self, fn, what: str, *args) -> None:
        """Check that fn(*args) is True; an exception is a failed check.
        A result of None means there is nothing to check."""
        try:
            ok = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        if ok is not None:
            self.check(ok is True, what)


def load_golden(name: str):
    with open(GOLDEN / name) as fh:
        return json.load(fh)


def call_cli(cli, argv: list[str]) -> tuple[float, int | str, str]:
    """Run one CLI request in-process; return (seconds, exit code, stdout).

    An exception escaping `cli.main` becomes a "crash: ..." exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            code = f"crash: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return dt, code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep: `hopfcomb verify` for every verifiable algebra at the default degree

def sweep(seed: int) -> Pass:
    import hopfcomb.cli as cli

    golden = load_golden("sweep.json")
    result = Pass()
    outputs = []
    for algebra in golden:
        dt, code, text = call_cli(cli, ["verify", "--algebra", algebra])
        result.requests.append((f"verify {algebra}", dt))
        outputs.append((algebra, code, text))

    def verify():
        for algebra, code, text in outputs:
            want = golden[algebra]
            result.check(code == want["code"] and text.splitlines() == want["lines"],
                         f"verify {algebra}: exit {code}, output {text.splitlines()}")

    result.verify = verify
    return result


# ---------------------------------------------------------------------------
# crosscheck: every fast rule against its independent route

SPLIT_DEGREE = 7          # total degree of the random pairs
SGQSYM_PAIRS = 12         # random pairs for the three sgqsym M-product routes
EQSYM_PAIRS = 120         # random pairs for eqsym against the matrix oracle


def _random_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _random_endo(rng, n):
    return tuple(rng.randint(1, n) for _ in range(n))


def _random_pairs(rng, make, count):
    """Distinct pairs of total degree SPLIT_DEGREE; the split of the degree
    cycles through 1..6 so every seed does the same mix of work."""
    seen, pairs = set(), []
    while len(pairs) < count:
        i = len(pairs) % (SPLIT_DEGREE - 1) + 1
        pair = (make(rng, i), make(rng, SPLIT_DEGREE - i))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def crosscheck(seed: int) -> Pass:
    from hopfcomb import eqsym, parkfunc, phisym, qdeform, sgqsym
    from hopfcomb.axioms import duality_check
    from hopfcomb.words import endofunctions, permutations, set_partitions

    rng = random.Random(f"crosscheck:{seed}")
    sg_pairs = _random_pairs(rng, _random_perm, SGQSYM_PAIRS)
    eq_pairs = _random_pairs(rng, _random_endo, EQSYM_PAIRS)
    result = Pass()
    verdicts: list[tuple[str, object]] = []

    def timed(name, fn, *args):
        t0 = perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            value = exc
        result.requests.append((name, perf_counter() - t0))
        verdicts.append((name, value))

    def pairs(family, top):
        # all pairs (x, y) with deg x + deg y <= top, as in the acceptance battery
        for i in range(1, top):
            for j in range(1, top - i + 1):
                for x in family(i):
                    for y in family(j):
                        yield x, y

    # the oracles at the acceptance-battery degrees
    for f, g in pairs(endofunctions, 5):
        timed(f"eqsym oracle {f} {g}", eqsym.oracle_check, f, g)
    for a, b in pairs(permutations, 5):
        timed(f"eqsym oracle {a} {b}", eqsym.oracle_check, a, b)
    for a, b in pairs(permutations, 4):
        timed(f"phisym biword {a} {b}", phisym.biword_product_check, a, b)
    for p1, p2 in pairs(set_partitions, 4):
        timed(f"wsym orbit words {p1} {p2}", sgqsym.mw_word_product_check, p1, p2)
    for a, b in pairs(permutations, 5):
        timed(f"fqsym-q q-commuting {a} {b}", qdeform.phi_morphism_check, a, b, 6)

    # the three duality pairs
    timed("duality eqsym 4", lambda: duality_check(
        eqsym.algebra(), eqsym.coproduct_S, 4,
        dual_product=eqsym.product_S, primal_coproduct=eqsym.coproduct_M).passed)
    timed("duality sgqsym 5", lambda: duality_check(
        sgqsym.algebra(), sgqsym.coproduct_S, 5,
        dual_product=sgqsym.product_S, primal_coproduct=sgqsym.coproduct_M).passed)
    timed("duality ccqsym 5", lambda: duality_check(
        parkfunc.cc_algebra(), parkfunc.cc_dual_coproduct, 5,
        dual_product=parkfunc.cc_dual_product,
        primal_coproduct=parkfunc.cc_coproduct).passed)

    # seeded random pairs above the exhaustive degrees
    routes = (sgqsym.product_M, sgqsym.product_M_splitting, sgqsym.product_M_dual_count)
    for a, b in sg_pairs:
        timed(f"sgqsym M routes {a} {b}", lambda: [route(a, b) for route in routes])
    for f, g in eq_pairs:
        timed(f"eqsym oracle {f} {g}", eqsym.oracle_check, f, g)

    def verify():
        for name, value in verdicts:
            if isinstance(value, list):  # the three M-product routes must agree
                ok = all(x == value[0] for x in value[1:]) and bool(value[0])
            else:
                ok = value is True
            result.check(ok, name if ok is True else f"{name}: {value!r:.200}")

    result.verify = verify
    return result


# ---------------------------------------------------------------------------
# query: a closed loop of distinct CLI requests

def _parse_terms(argv: list[str], text: str) -> dict[str, str]:
    """label text -> coefficient text of a product printed by the CLI."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return {t["label"]: t["coeff"] for t in json.loads(text)["terms"]}
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    for chunk in text.split(" + "):
        coeff = "1"
        if "*" in chunk.split("[", 1)[0]:
            coeff, chunk = chunk.split("*", 1)
            coeff = coeff.strip("()")
        terms[chunk[chunk.index("[") + 1:-1]] = coeff
    return terms


def _as_text_terms(x, label_text) -> dict[str, str]:
    return {label_text(label): str(c) for label, c in x.terms.items()}


def _product_route(argv: list[str], text: str) -> bool | None:
    """Check a product against an independent route; None if there is none
    (or it is too slow at this degree)."""
    from hopfcomb import parkfunc, qdeform, realize, sgqsym
    from hopfcomb.lincomb import LinComb
    from hopfcomb.words import word_from_text, word_to_text

    algebra = argv[argv.index("--algebra") + 1]
    basis = argv[argv.index("--basis") + 1] if "--basis" in argv else None
    x, y = argv[-2:]
    terms = _parse_terms(argv, text)
    if algebra == "eqsym" and basis == "M":     # matrix-entry realization
        f, g = word_from_text(x), word_from_text(y)
        got = LinComb("eqsym:M", {word_from_text(k): int(v) for k, v in terms.items()})
        return realize.oracle_product_check(f, g, len(f) + len(g), got)
    if algebra == "sgqsym" and basis == "M":    # cycles pushed into set splits
        route = sgqsym.product_M_splitting(word_from_text(x), word_from_text(y))
        return terms == _as_text_terms(route, word_to_text)
    if algebra == "parkgraph" and len(x) + len(y) <= 5:  # labelled expansion
        c1 = parkfunc.graph_certificate(word_from_text(x))
        c2 = parkfunc.graph_certificate(word_from_text(y))
        route = parkfunc.unlabelled_product_brute(c1, c2)
        return terms == _as_text_terms(route, parkfunc.certificate_text)
    if algebra == "fqsym-q" and len(x) + len(y) <= 6:    # q-commuting variables
        a, b = word_from_text(x), word_from_text(y)
        got = LinComb("fqsym-q:F", {word_from_text(k): int(v) for k, v in terms.items()})
        n = len(a) + len(b) + 1
        lhs = qdeform.phi_realized(qdeform.phi_lincomb(got), n)
        rhs = realize.qvar_mul(qdeform.phi_realized(qdeform.phi_map(a), n),
                               qdeform.phi_realized(qdeform.phi_map(b), n))
        return lhs == rhs
    return None


def _bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _involutions(n):
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def _fubini(n):
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# the README's sequences, from n = 1 (unlabelled graphs from n = 0)
README_SEQUENCES = {
    "parking-stalactic": [1, 3, 13, 73, 501, 4051],
    "endofunctions-stalactic": [1, 4, 21, 136, 1045, 9276],
    "initial-words-stalactic": [1, 3, 11, 49, 261, 1631],
    "connected-endofunctions": [1, 3, 20, 197, 2511, 38924],
    "free-lie-dims": [1, 3, 23, 223, 2800, 42576],
}
CLOSED_FORMS = {
    "endofunctions": lambda n: n ** n,
    "permutations": math.factorial,
    "parking": lambda n: (n + 1) ** (n - 1),
    "set-partitions": _bell,
    "involutions": _involutions,
    "initial-words": _fubini,
    "nondecreasing-parking": _catalan,
    "sylvester-q-classes": _catalan,
    "hypoplactic-q-classes": lambda n: 2 ** (n - 1),
    "unlabelled-parking-graphs": lambda n: [1, 1, 3, 7, 19, 47, 130][n],
}
CLOSED_FORMS.update({fam: (lambda seq: lambda n: seq[n - 1])(seq)
                     for fam, seq in README_SEQUENCES.items()})


def query(seed: int) -> Pass:
    import hopfcomb.cli as cli

    golden = load_golden("query.json")
    requests = queries.pass_requests(queries.build_pool(), seed)
    result = Pass()
    outputs = []
    for argv in requests:
        dt, code, text = call_cli(cli, argv)
        key = queries.key(argv)
        result.requests.append((key, dt))
        outputs.append((argv, key, code, text))

    def verify():
        for argv, key, code, text in outputs:
            want = golden[key]
            result.check(code == want["code"] and digest(text) == want["sha256"],
                         f"{key}: exit {code}, output {text[:200]!r}")
            if code != 0:
                continue
            if argv[0] == "count":
                family, n = argv[2], int(argv[3])
                result.check_call(lambda: int(text) == CLOSED_FORMS[family](n),
                                  f"{key}: {text.strip()} is not the closed form")
            elif argv[0] == "product":
                result.check_call(_product_route,
                                  f"{key}: disagrees with the independent route", argv, text)

    result.verify = verify
    return result


WORKLOADS = {"sweep": sweep, "crosscheck": crosscheck, "query": query}
