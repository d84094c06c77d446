"""Command-line surface: products, coproducts, pairings, conversions,
counts, stalactic insertion, triangles, and verification sweeps.

Output is deterministic: terms print graded, then lexicographically by label
encoding.  Exit codes: 0 success, 1 verification failure, 2 usage errors,
including labels outside their basis's family.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import eqsym, parkfunc, phisym, qdeform, sgqsym, stalactic, symfunc
from .axioms import (GradedBasis, check_each, duality_check, graded_pairs, hopf_check,
                     sweep_guard)
from .limits import LimitExceeded, current_limits
from .lincomb import LinComb
from .words import (FAMILIES, family_size, set_partition_to_text, word_from_text,
                    word_to_text)


def _letters_from_text(text: str):
    text = text.strip()
    if text.isalpha():
        return tuple(ord(ch) - 96 for ch in text.lower())
    return word_from_text(text)


# Keyed by kind, "algebra:basis"; an algebra's first basis is its default.
# The records are direct values of a module-level dict, so that the
# benchmark's tracer, which patches the fields of such records, reaches
# every rule.
_REGISTRY: dict[str, GradedBasis] = {basis.kind: basis for basis in (
    eqsym.algebra(),
    eqsym.dual_algebra(),
    sgqsym.algebra(),
    sgqsym.dual_algebra(),
    sgqsym.piqsym_algebra(),
    sgqsym.wsym_algebra(),
    sgqsym.qsym_algebra(),
    sgqsym.sym_algebra(),
    GradedBasis(sgqsym.V_KIND, FAMILIES["compositions"], sgqsym.product_V, None),
    phisym.algebra(),
    GradedBasis(phisym.SPRIME_KIND, FAMILIES["permutations"],
                phisym.product_sprime, phisym.coproduct_sprime),
    GradedBasis(phisym.SSECOND_KIND, FAMILIES["permutations"],
                phisym.product_ssecond, phisym.coproduct_ssecond),
    GradedBasis(phisym.Y_KIND, FAMILIES["partitions"], phisym.product_Y, phisym.coproduct_Y),
    parkfunc.algebra(),
    parkfunc.cc_algebra(),
    GradedBasis(parkfunc.CC_DUAL_KIND, FAMILIES["nondecreasing_parking"],
                parkfunc.cc_dual_product, parkfunc.cc_dual_coproduct),
    GradedBasis(parkfunc.FOREST_KIND, parkfunc.FORESTS,
                parkfunc.forest_product, parkfunc.forest_coproduct),
    GradedBasis(parkfunc.GRAPH_KIND, parkfunc.PARKING_GRAPHS,
                parkfunc.unlabelled_product, parkfunc.unlabelled_coproduct),
    GradedBasis(qdeform.F_KIND, FAMILIES["permutations"],
                qdeform.product_F, qdeform.coproduct_q_F),
    GradedBasis(qdeform.QM_KIND, FAMILIES["compositions"], None, qdeform.coproduct_q_M),
    GradedBasis(qdeform.NS_KIND, FAMILIES["compositions"],
                qdeform.product_S_ncsf, qdeform.coproduct_q_S),
)}

ALGEBRAS = sorted({kind.split(":")[0] for kind in _REGISTRY})


def _lookup(algebra: str, basis: str | None) -> GradedBasis:
    """A registered basis; without a name, the algebra's first registered one."""
    kinds = [kind for kind in _REGISTRY if kind.startswith(f"{algebra}:")]
    if not kinds:
        raise KeyError(f"unknown algebra {algebra!r}")
    kind = kinds[0] if basis is None else f"{algebra}:{basis}"
    if kind not in _REGISTRY:
        raise KeyError(f"unknown basis {basis!r} for algebra {algebra!r}")
    return _REGISTRY[kind]


def _terms(x: LinComb, spec: GradedBasis, tensor_terms: bool,
           part: Callable[[str], str], sep: str) -> list[tuple[str, object]]:
    """(label text, coefficient) in output order: graded, then by text.
    Each factor is written by ``part``; tensor factors are joined by ``sep``."""
    rows = []
    for label, c in x.terms.items():
        factors = label if tensor_terms else (label,)
        text = sep.join(part(spec.family.text(f)) for f in factors)
        rows.append((sum(spec.family.degree(f) for f in factors), text, c))
    return [(text, c) for _, text, c in sorted(rows, key=lambda row: row[:2])]


def _emit(x: LinComb, spec: GradedBasis, fmt: str, tensor_terms: bool = False) -> None:
    algebra, basis = spec.kind.split(":")
    if fmt == "json":
        terms = _terms(x, spec, tensor_terms, str, "|")
        payload = {
            "algebra": algebra,
            "basis": basis,
            "terms": [{"label": text, "coeff": str(c)} for text, c in terms],
        }
        print(json.dumps(payload, sort_keys=True))
        return
    chunks = []
    for body, c in _terms(x, spec, tensor_terms, lambda t: f"{basis}[{t}]", "(x)"):
        if c == 1:
            chunks.append(body)
        elif isinstance(c, int) and c >= 0:
            chunks.append(f"{c}*{body}")
        else:
            chunks.append(f"({c})*{body}")
    print(" + ".join(chunks) or "0")


# ---------------------------------------------------------------------------
# count families

def _stalactic_count(family: str):
    return lambda n: stalactic.class_count(family, n)


# counted by closed form or recurrence, and refused where their enumerators are
_LABEL_FAMILIES = ("endofunctions", "permutations", "parking", "nondecreasing_parking",
                   "set_partitions", "initial_words", "involutions")

_COUNTS: dict[str, Callable] = {
    **{family.replace("_", "-"): functools.partial(family_size, family)
       for family in _LABEL_FAMILIES},
    "connected-endofunctions": eqsym.connected_count,
    "free-lie-dims": eqsym.lie_dims,
    "parking-stalactic": _stalactic_count("parking"),
    "endofunctions-stalactic": _stalactic_count("endofunctions"),
    "initial-words-stalactic": _stalactic_count("initial_words"),
    "unlabelled-parking-graphs": parkfunc.unlabelled_count,
    "sylvester-q-classes": lambda n: qdeform.class_census("qS", n),
    "hypoplactic-q-classes": lambda n: qdeform.class_census("qH", n),
}


# ---------------------------------------------------------------------------
# verification sweeps

DUALITY_DEGREE = 5  # duality and q = 0 cocommutativity stop at this degree


def _fqsym_q_checks(max_degree: int) -> tuple[int, list[str]]:
    """fqsym-q's sweep: the twisted morphism on every pair of F labels, then
    cocommutativity at q = 0."""
    family = _REGISTRY[qdeform.F_KIND].family
    sweep_guard(family.name, max_degree)
    res = check_each(graded_pairs(family.labels, max_degree), qdeform.fqsym_twisted_morphism_check)
    cocom = qdeform.cocommutativity_check(min(max_degree, DUALITY_DEGREE))
    lines = [res.line("twisted-morphism"), cocom.line("q0-cocommutativity")]
    return (0 if res.passed and cocom.passed else 1), lines


# What `verify` runs after `hopf_check` on an algebra's default basis: the
# basis paired with it by `duality_check`, or None.  fqsym-q runs its twisted
# checks instead.  `perfbench/make_golden.py` records the sweep in this order.
_VERIFY: dict[str, str | Callable | None] = {
    "eqsym": "S", "sgqsym": "S", "piqsym": None, "wsym": None, "qsym-embed": None,
    "sym-embed": None, "phisym": None, "cpqsym": None, "ccqsym": "S",
    "fqsym-q": _fqsym_q_checks,
}

VERIFIABLE = list(_VERIFY)


def _verify(algebra: str, max_degree: int) -> tuple[int, list[str]]:
    plan = _VERIFY[algebra]
    if callable(plan):
        return plan(max_degree)
    alg = _lookup(algebra, None)
    report = hopf_check(alg, max_degree)
    lines = report.lines()
    passed = report.passed
    if plan is not None:
        # the primal rules read the sweep's tables: they hold every value
        # duality asks for, but for a streamed top degree's
        dual = _lookup(algebra, plan)
        res = duality_check(
            report.tabled, dual.coproduct, min(max_degree, DUALITY_DEGREE),
            dual_product=dual.product, primal_coproduct=report.tabled.coproduct,
        )
        lines.append(res.line("duality-consistency"))
        passed = passed and res.passed
    return (0 if passed else 1), lines


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first call and shared by every
    later one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="hopfcomb",
        description="Exact computations in combinatorial Hopf algebras of "
        "endofunctions, permutations, set partitions, parking functions and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_args(p, nargs: int):
        p.add_argument("--algebra", required=True, choices=ALGEBRAS)
        p.add_argument("--basis", default=None)
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("elements", nargs=nargs)

    p = sub.add_parser("product", help="expand a product of two basis elements")
    add_algebra_args(p, 2)
    p = sub.add_parser("coproduct", help="expand the coproduct of a basis element")
    add_algebra_args(p, 1)

    p = sub.add_parser("pair", help="dual-basis pairing; with three elements, <x*y, z>")
    p.add_argument("--algebra", required=True, choices=ALGEBRAS)
    p.add_argument("--basis", default=None)
    p.add_argument("elements", nargs="+")

    p = sub.add_parser("convert", help="change of basis")
    p.add_argument("--algebra", required=True, choices=["phisym", "sym-classical"])
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("element")

    p = sub.add_parser("count", help="count a family at a given size")
    p.add_argument("--family", required=True, choices=sorted(_COUNTS))
    p.add_argument("n", type=int)

    p = sub.add_parser("insert", help="stalactic insertion of a word")
    p.add_argument("word")
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("triangle", help="rows of a counting triangle")
    p.add_argument("--name", required=True,
                   choices=["narayana", "lah", "tw", "endt", "pascal", "arr"])
    p.add_argument("rows", type=int)

    p = sub.add_parser("verify", help="run axiom sweeps for an algebra")
    p.add_argument("--algebra", required=True, choices=VERIFIABLE)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="alias for --max-degree resource guard")
    return parser


def _verify_degree(args) -> int:
    """The degree bound of a sweep: --max-degree, else --limit, else the guard."""
    for knob, value in (("--max-degree", args.max_degree), ("--limit", args.limit)):
        if value is not None:
            break
    else:
        knob, value = "HOPFCOMB_MAX_DEGREE", current_limits().max_degree
    if value < 1:
        raise ValueError(f"{knob} must be at least 1, got {value}")
    return value


def _run(args) -> int:
    if args.command in ("product", "coproduct"):
        spec = _lookup(args.algebra, args.basis)
        rule = getattr(spec, args.command)
        if rule is None:
            print(f"no {args.command} registered for {spec.kind}",
                  file=sys.stderr)
            return 2
        labels = [spec.family.parse(e) for e in args.elements]
        _emit(rule(*labels), spec, args.format, tensor_terms=args.command == "coproduct")
        return 0

    if args.command == "pair":
        spec = _lookup(args.algebra, args.basis)
        if len(args.elements) == 3 and spec.product is None:
            print(f"no product registered for {spec.kind}", file=sys.stderr)
            return 2
        labels = [spec.family.parse(e) for e in args.elements]
        if len(labels) == 2:
            print(1 if labels[0] == labels[1] else 0)
            return 0
        if len(labels) == 3:
            print(spec.product(labels[0], labels[1])[labels[2]])
            return 0
        print("pair takes two labels (delta) or three (<x*y, z>)", file=sys.stderr)
        return 2

    if args.command == "convert":
        if args.algebra == "phisym":
            conversions = {
                ("phi", "Sp"): phisym.phi_to_sprime,
                ("phi", "Ss"): phisym.phi_to_ssecond,
                ("Sp", "phi"): phisym.sprime_to_phi,
                ("Ss", "phi"): phisym.ssecond_to_phi,
            }
            key = (args.src, args.dst)
            if key not in conversions:
                print(f"unsupported conversion {args.src} -> {args.dst}",
                      file=sys.stderr)
                return 2
            label = _lookup("phisym", args.src).family.parse(args.element)
            out = conversions[key](LinComb.basis("phisym:phi", label))
            _emit(out, _lookup("phisym", args.dst), args.format)
            return 0
        # classical symmetric functions
        if args.src not in symfunc.BASES or args.dst not in symfunc.BASES:
            print(f"unsupported basis name {args.src!r} or {args.dst!r}",
                  file=sys.stderr)
            return 2
        spec = GradedBasis(f"sym-classical:{args.dst}", FAMILIES["partitions"], None, None)
        out = symfunc.convert(symfunc.sym(args.src, spec.family.parse(args.element)), args.dst)
        _emit(out, spec, args.format)
        return 0

    if args.command == "count":
        if args.n < 0:
            raise ValueError("n must be nonnegative")
        print(_COUNTS[args.family](args.n))
        return 0

    if args.command == "insert":
        word = _letters_from_text(args.word)
        if not all(a > 0 for a in word):
            raise ValueError(f"not a word of positive letters: {args.word!r}")
        tableau, q_symbol = stalactic.insert(word)

        alphabetic = args.word.strip().isalpha()

        def letter(v: int) -> str:
            return chr(96 + v) if alphabetic else str(v)

        if args.format == "json":
            print(json.dumps({
                "P": [[letter(col[0]), col[1]] for col in tableau.columns],
                "Q": [list(b) for b in q_symbol],
            }))
        else:
            p_word = tableau.word()
            # word_to_text writes the empty word "()"; here it prints as nothing
            print("P:", word_to_text(p_word) if p_word and not alphabetic
                  else "".join(letter(a) for a in p_word))
            for row in tableau.rows():
                print("  " + " ".join("." if v is None else letter(v) for v in row))
            print("Q:", set_partition_to_text(q_symbol))
        return 0

    if args.command == "triangle":
        if args.rows < 0:
            raise ValueError("rows must be nonnegative")
        for n in range(1, args.rows + 1):
            print(" ".join(str(v) for v in stalactic.triangle(args.name, n)))
        return 0

    if args.command == "verify":
        code, lines = _verify(args.algebra, _verify_degree(args))
        for line in lines:
            print(line)
        return code

    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
