"""Command-line surface: products, coproducts, pairings, conversions,
counts, stalactic insertion, triangles, and verification sweeps.

Output is deterministic: terms print graded, then lexicographically by label
encoding.  Exit codes: 0 success, 1 verification failure, 2 usage errors,
including labels outside their basis's family.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import eqsym, parkfunc, phisym, qdeform, sgqsym, stalactic, symfunc
from .axioms import GradedBasis, duality_check, graded_pairs, hopf_check
from .limits import LimitExceeded, current_limits, guard
from .lincomb import LinComb
from .words import (
    composition_from_text,
    composition_to_text,
    enumerate_family,
    is_endofunction,
    is_nondecreasing,
    is_parking,
    is_permutation,
    permutations,
    set_partition_from_text,
    set_partition_to_text,
    word_from_text,
    word_to_text,
)


def _partition_from_text(text: str):
    return tuple(sorted(composition_from_text(text), reverse=True))


def _letters_from_text(text: str):
    text = text.strip()
    if text.isalpha():
        return tuple(ord(ch) - 96 for ch in text.lower())
    return word_from_text(text)


def _blocks_degree(label) -> int:
    return sum(len(b) for b in label)


def _family(parse: Callable, valid: Callable, name: str, text: Callable,
            degree: Callable) -> tuple[Callable, Callable, Callable]:
    """A label family's (parse, text, degree); parsing refuses labels outside it."""
    def checked(label_text: str):
        label = parse(label_text)
        if not valid(label):
            raise ValueError(f"not {name}: {label_text!r}")
        return label
    return checked, text, degree


def _positive(parts) -> bool:
    return all(p > 0 for p in parts)


def _covers(pi) -> bool:
    return sorted(a for b in pi for a in b) == list(range(1, _blocks_degree(pi) + 1))


_ENDOFUNCTIONS = _family(word_from_text, is_endofunction, "an endofunction",
                         word_to_text, len)
_PERMUTATIONS = _family(word_from_text, is_permutation, "a permutation", word_to_text, len)
_PARKING = _family(word_from_text, is_parking, "a parking function", word_to_text, len)
_ND_PARKING = _family(word_from_text, lambda w: is_nondecreasing(w) and is_parking(w),
                      "a nondecreasing parking function", word_to_text, len)
_SET_PARTITIONS = _family(set_partition_from_text, _covers, "a set partition of 1..n",
                          set_partition_to_text, _blocks_degree)
_COMPOSITIONS = _family(composition_from_text, _positive, "a composition",
                        composition_to_text, sum)
_PARTITIONS = _family(_partition_from_text, _positive, "a partition",
                      composition_to_text, sum)
# forest and unlabelled parking-graph labels are entered through a checked
# representative and held as its certificate
_FORESTS = (lambda text: parkfunc.forest_certificate(_ND_PARKING[0](text)),
            parkfunc.forest_text, parkfunc.forest_size)
_PARKING_GRAPHS = (lambda text: parkfunc.graph_certificate(_PARKING[0](text)),
                   parkfunc.certificate_text, parkfunc.cert_size)


@dataclass(frozen=True)
class BasisSpec:
    algebra: str
    basis: str
    parse: Callable
    text: Callable
    degree: Callable
    product: Callable | None = None
    coproduct: Callable | None = None


# Flat, so that the benchmark's tracer, which patches fields of records held in
# module-level dicts, reaches every rule.  An algebra's first basis is its default.
_REGISTRY: dict[tuple[str, str], BasisSpec] = {}


def _register(algebra: str, basis: str, family: tuple, product, coproduct) -> None:
    _REGISTRY[(algebra, basis)] = BasisSpec(algebra, basis, *family, product, coproduct)


_register("eqsym", "M", _ENDOFUNCTIONS, eqsym.product_M, eqsym.coproduct_M)
_register("eqsym", "S", _ENDOFUNCTIONS, eqsym.product_S, eqsym.coproduct_S)
_register("sgqsym", "M", _PERMUTATIONS, sgqsym.product_M, sgqsym.coproduct_M)
_register("sgqsym", "S", _PERMUTATIONS, sgqsym.product_S, sgqsym.coproduct_S)
_register("piqsym", "upi", _SET_PARTITIONS, sgqsym.product_upi, sgqsym.coproduct_upi)
_register("wsym", "Mw", _SET_PARTITIONS, sgqsym.product_Mw, sgqsym.coproduct_Mw)
_register("qsym-embed", "uq", _COMPOSITIONS, sgqsym.product_uq, sgqsym.coproduct_uq)
_register("sym-embed", "ul", _PARTITIONS, sgqsym.product_ul, sgqsym.coproduct_ul)
_register("ncsf", "V", _COMPOSITIONS, sgqsym.product_V, None)
_register("phisym", "phi", _PERMUTATIONS, phisym.product_phi, phisym.coproduct_phi)
_register("phisym", "Sp", _PERMUTATIONS, phisym.product_sprime, phisym.coproduct_sprime)
_register("phisym", "Ss", _PERMUTATIONS, phisym.product_ssecond, phisym.coproduct_ssecond)
_register("phisym", "Y", _PARTITIONS, phisym.product_Y, phisym.coproduct_Y)
_register("cpqsym", "Mpa", _PARKING, parkfunc.product_Mpa, parkfunc.coproduct_Mpa)
_register("ccqsym", "Mpa", _ND_PARKING, parkfunc.cc_product, parkfunc.cc_coproduct)
_register("ccqsym", "S", _ND_PARKING, parkfunc.cc_dual_product, parkfunc.cc_dual_coproduct)
_register("forest", "M", _FORESTS, parkfunc.forest_product, None)
_register("parkgraph", "N", _PARKING_GRAPHS,
          parkfunc.unlabelled_product, parkfunc.unlabelled_coproduct)
_register("fqsym-q", "F", _PERMUTATIONS, qdeform.product_F, qdeform.coproduct_q_F)
_register("qsym-q", "M", _COMPOSITIONS, None, qdeform.coproduct_q_M)
_register("ncsf-q", "S", _COMPOSITIONS, qdeform.product_S_ncsf, qdeform.coproduct_q_S)

ALGEBRAS = sorted({algebra for algebra, _ in _REGISTRY})


def _lookup(algebra: str, basis: str | None) -> BasisSpec:
    """A registered basis; without a name, the algebra's first registered one."""
    bases = {name: spec for (alg, name), spec in _REGISTRY.items() if alg == algebra}
    if not bases:
        raise KeyError(f"unknown algebra {algebra!r}")
    if basis is not None and basis not in bases:
        raise KeyError(f"unknown basis {basis!r} for algebra {algebra!r}")
    return bases[basis or next(iter(bases))]


def _terms(x: LinComb, spec: BasisSpec, tensor_terms: bool,
           part: Callable[[str], str], sep: str) -> list[tuple[str, object]]:
    """(label text, coefficient) in output order: graded, then by text.
    Each factor is written by ``part``; tensor factors are joined by ``sep``."""
    rows = []
    for label, c in x.terms.items():
        factors = label if tensor_terms else (label,)
        text = sep.join(part(spec.text(f)) for f in factors)
        rows.append((sum(spec.degree(f) for f in factors), text, c))
    return [(text, c) for _, text, c in sorted(rows, key=lambda row: row[:2])]


def _emit(x: LinComb, spec: BasisSpec, fmt: str, tensor_terms: bool = False) -> None:
    if fmt == "json":
        terms = _terms(x, spec, tensor_terms, str, "|")
        payload = {
            "algebra": spec.algebra,
            "basis": spec.basis,
            "terms": [{"label": text, "coeff": str(c)} for text, c in terms],
        }
        print(json.dumps(payload, sort_keys=True))
        return
    chunks = []
    for body, c in _terms(x, spec, tensor_terms, lambda t: f"{spec.basis}[{t}]", "(x)"):
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


def _enumerated_count(family: str):
    return lambda n: sum(1 for _ in enumerate_family(family, n))


_ENUMERATED = ("endofunctions", "permutations", "parking", "nondecreasing_parking",
               "set_partitions", "initial_words", "involutions")

_COUNTS: dict[str, Callable] = {
    **{family.replace("_", "-"): _enumerated_count(family) for family in _ENUMERATED},
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


@dataclass(frozen=True)
class AlgebraSpec:
    """What ``verify`` runs: :func:`hopf_check` on ``factory()``, its
    :func:`duality_check` with the registered basis ``dual``, and ``extra``,
    which maps the degree bound to (passed, report lines).  ``family`` names
    the :class:`~hopfcomb.limits.Limits` bound of the labels swept."""
    factory: Callable[[], GradedBasis] | None
    family: str
    dual: str | None = None
    extra: Callable[[int], tuple[bool, list[str]]] | None = None


def _fqsym_q_checks(max_degree: int) -> tuple[bool, list[str]]:
    lines = [f"twisted-morphism: FAIL at {(a, b)}"
             for a, b in graded_pairs(permutations, max_degree)
             if not qdeform.fqsym_twisted_morphism_check(a, b)]
    ok = not lines
    if ok:
        lines.append("twisted-morphism: ok")
    cocom = qdeform.cocommutativity_check(min(max_degree, DUALITY_DEGREE))
    lines.append(f"q0-cocommutativity: {'yes' if cocom else 'no'}")
    return ok and cocom, lines


# `perfbench/make_golden.py` records the sweep in this order.
_VERIFY: dict[str, AlgebraSpec] = {
    "eqsym": AlgebraSpec(eqsym.algebra, "endofunctions", dual="S"),
    "sgqsym": AlgebraSpec(sgqsym.algebra, "permutations", dual="S"),
    "piqsym": AlgebraSpec(sgqsym.piqsym_algebra, "set_partitions"),
    "wsym": AlgebraSpec(sgqsym.wsym_algebra, "set_partitions"),
    "qsym-embed": AlgebraSpec(sgqsym.qsym_algebra, "compositions"),
    "sym-embed": AlgebraSpec(sgqsym.sym_algebra, "partitions"),
    "phisym": AlgebraSpec(phisym.algebra, "permutations"),
    "cpqsym": AlgebraSpec(parkfunc.algebra, "parking"),
    "ccqsym": AlgebraSpec(parkfunc.cc_algebra, "nondecreasing_parking", dual="S"),
    "fqsym-q": AlgebraSpec(None, "permutations", extra=_fqsym_q_checks),
}

VERIFIABLE = list(_VERIFY)


def _verify(algebra: str, max_degree: int) -> tuple[int, list[str]]:
    plan = _VERIFY[algebra]
    guard(plan.family, max_degree)
    lines: list[str] = []
    passed = True
    if plan.factory is not None:
        alg = plan.factory()
        report = hopf_check(alg, max_degree)
        lines += report.lines()
        passed = report.passed
        if plan.dual is not None:
            dual = _REGISTRY[(algebra, plan.dual)]
            res = duality_check(
                alg, dual.coproduct, min(max_degree, DUALITY_DEGREE),
                dual_product=dual.product, primal_coproduct=alg.coproduct,
            )
            lines.append(f"duality-consistency: {'ok' if res.passed else f'FAIL at {res.counterexample}'}")
            passed = passed and res.passed
    if plan.extra is not None:
        ok, extra_lines = plan.extra(max_degree)
        lines += extra_lines
        passed = passed and ok
    return (0 if passed else 1), lines


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
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
            print(f"no {args.command} registered for {args.algebra}:{spec.basis}",
                  file=sys.stderr)
            return 2
        labels = [spec.parse(e) for e in args.elements]
        _emit(rule(*labels), spec, args.format, tensor_terms=args.command == "coproduct")
        return 0

    if args.command == "pair":
        spec = _lookup(args.algebra, args.basis)
        labels = [spec.parse(e) for e in args.elements]
        if len(labels) == 2:
            print(1 if labels[0] == labels[1] else 0)
            return 0
        if len(labels) == 3 and spec.product is not None:
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
            label = _lookup("phisym", args.src).parse(args.element)
            out = conversions[key](LinComb.basis("phisym:phi", label))
            _emit(out, _lookup("phisym", args.dst), args.format)
            return 0
        # classical symmetric functions
        if args.src not in symfunc.BASES or args.dst not in symfunc.BASES:
            print(f"unsupported basis name {args.src!r} or {args.dst!r}",
                  file=sys.stderr)
            return 2
        spec = BasisSpec("sym-classical", args.dst, *_PARTITIONS)
        out = symfunc.convert(symfunc.sym(args.src, spec.parse(args.element)), args.dst)
        _emit(out, spec, args.format)
        return 0

    if args.command == "count":
        if args.n < 0:
            raise ValueError("n must be nonnegative")
        print(_COUNTS[args.family](args.n))
        return 0

    if args.command == "insert":
        word = _letters_from_text(args.word)
        if not _positive(word):
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
            print("P:", "".join(letter(a) for a in tableau.word()))
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
