"""Command-line surface: products, coproducts, pairings, conversions,
counts, stalactic insertion, triangles, and verification sweeps.

Output is deterministic: terms print graded, then lexicographically by label
encoding.  Exit codes: 0 success, 1 verification failure, 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import eqsym, parkfunc, phisym, qdeform, sgqsym, stalactic, symfunc
from .axioms import duality_check, hopf_check
from .coeffs import QPoly
from .limits import LimitExceeded, current_limits
from .lincomb import LinComb, pairing, tensor
from .words import (
    composition_from_text,
    composition_to_text,
    connected_factorization,
    enumerate_family,
    is_connected,
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


def _forest_from_text(text: str):
    return parkfunc.forest_certificate(word_from_text(text))


def _word_degree(label) -> int:
    return len(label)


def _partition_degree(label) -> int:
    return sum(label)


def _blocks_degree(label) -> int:
    return sum(len(b) for b in label)


@dataclass(frozen=True)
class BasisSpec:
    algebra: str
    basis: str
    symbol: str
    parse: Callable
    text: Callable
    degree: Callable
    product: Callable | None = None
    coproduct: Callable | None = None


_REGISTRY: dict[tuple[str, str], BasisSpec] = {}


def _register(spec: BasisSpec) -> None:
    _REGISTRY[(spec.algebra, spec.basis)] = spec


_register(BasisSpec("eqsym", "M", "M", word_from_text, word_to_text, _word_degree,
                    eqsym.product_M, eqsym.coproduct_M))
_register(BasisSpec("eqsym", "S", "S", word_from_text, word_to_text, _word_degree,
                    eqsym.product_S, eqsym.coproduct_S))
_register(BasisSpec("sgqsym", "M", "M", word_from_text, word_to_text, _word_degree,
                    sgqsym.product_M, sgqsym.coproduct_M))
_register(BasisSpec("sgqsym", "S", "S", word_from_text, word_to_text, _word_degree,
                    sgqsym.product_S, sgqsym.coproduct_S))
_register(BasisSpec("piqsym", "upi", "upi", set_partition_from_text,
                    set_partition_to_text, _blocks_degree,
                    sgqsym.product_upi, sgqsym.coproduct_upi))
_register(BasisSpec("wsym", "Mw", "Mw", set_partition_from_text,
                    set_partition_to_text, _blocks_degree,
                    sgqsym.product_Mw, sgqsym.coproduct_Mw))
_register(BasisSpec("qsym-embed", "uq", "uq", composition_from_text,
                    composition_to_text, _partition_degree,
                    sgqsym.product_uq, sgqsym.coproduct_uq))
_register(BasisSpec("sym-embed", "ul", "ul", _partition_from_text,
                    composition_to_text, _partition_degree,
                    sgqsym.product_ul, sgqsym.coproduct_ul))
_register(BasisSpec("ncsf", "V", "V", composition_from_text, composition_to_text,
                    _partition_degree, sgqsym.product_V, None))
_register(BasisSpec("phisym", "phi", "phi", word_from_text, word_to_text,
                    _word_degree, phisym.product_phi, phisym.coproduct_phi))
_register(BasisSpec("phisym", "Sp", "Sp", word_from_text, word_to_text,
                    _word_degree, phisym.product_sprime, phisym.coproduct_sprime))
_register(BasisSpec("phisym", "Ss", "Ss", word_from_text, word_to_text,
                    _word_degree, phisym.product_ssecond, phisym.coproduct_ssecond))
_register(BasisSpec("phisym", "Y", "Y", _partition_from_text, composition_to_text,
                    _partition_degree, phisym.product_Y, phisym.coproduct_Y))
_register(BasisSpec("cpqsym", "Mpa", "Mpa", word_from_text, word_to_text,
                    _word_degree, parkfunc.product_Mpa, parkfunc.coproduct_Mpa))
_register(BasisSpec("ccqsym", "Mpa", "Mpa", word_from_text, word_to_text,
                    _word_degree, parkfunc.cc_product, parkfunc.cc_coproduct))
_register(BasisSpec("ccqsym", "S", "S", word_from_text, word_to_text,
                    _word_degree, parkfunc.cc_dual_product, parkfunc.cc_dual_coproduct))
_register(BasisSpec("forest", "M", "M",
                    lambda text: parkfunc.forest_certificate(word_from_text(text)),
                    parkfunc.forest_text, parkfunc.forest_size,
                    parkfunc.forest_product, None))
# the unlabelled parking-graph basis takes parking-function representatives
_register(BasisSpec("parkgraph", "N", "N",
                    lambda text: parkfunc.graph_certificate(word_from_text(text)),
                    parkfunc.certificate_text, parkfunc.cert_size,
                    parkfunc.unlabelled_product, parkfunc.unlabelled_coproduct))
_register(BasisSpec("fqsym-q", "F", "F", word_from_text, word_to_text, _word_degree,
                    qdeform.product_F, qdeform.coproduct_q_F))
_register(BasisSpec("qsym-q", "M", "M", composition_from_text, composition_to_text,
                    _partition_degree, None, qdeform.coproduct_q_M))
_register(BasisSpec("ncsf-q", "S", "S", composition_from_text, composition_to_text,
                    _partition_degree, qdeform.product_S_ncsf, qdeform.coproduct_q_S))

ALGEBRAS = sorted({algebra for algebra, _ in _REGISTRY})


def _lookup(algebra: str, basis: str | None) -> BasisSpec:
    candidates = [spec for (alg, _), spec in _REGISTRY.items() if alg == algebra]
    if not candidates:
        raise KeyError(f"unknown algebra {algebra!r}")
    if basis is None:
        if len(candidates) == 1:
            return candidates[0]
        basis = {"eqsym": "M", "sgqsym": "M", "phisym": "phi", "cpqsym": "Mpa",
                 "ccqsym": "Mpa", "fqsym-q": "F"}.get(algebra, candidates[0].basis)
    try:
        return _REGISTRY[(algebra, basis)]
    except KeyError:
        raise KeyError(f"unknown basis {basis!r} for algebra {algebra!r}") from None


def _coeff_text(c) -> str:
    return str(c)


def _format_terms(x: LinComb, spec: BasisSpec, tensor_terms: bool) -> str:
    if not x.terms:
        return "0"

    def term_text(label) -> str:
        if tensor_terms:
            return "(x)".join(f"{spec.symbol}[{spec.text(part)}]" for part in label)
        return f"{spec.symbol}[{spec.text(label)}]"

    def term_degree(label) -> int:
        if tensor_terms:
            return sum(spec.degree(part) for part in label)
        return spec.degree(label)

    items = sorted(
        x.terms.items(), key=lambda t: (term_degree(t[0]), term_text(t[0]))
    )
    chunks = []
    for label, c in items:
        body = term_text(label)
        if c == 1:
            chunks.append(body)
        elif isinstance(c, int):
            chunks.append(f"{c}*{body}" if c >= 0 else f"({c})*{body}")
        else:
            chunks.append(f"({c})*{body}")
    return " + ".join(chunks)


def _json_terms(x: LinComb, spec: BasisSpec, tensor_terms: bool) -> list[dict]:
    def label_text(label) -> str:
        if tensor_terms:
            return "|".join(spec.text(part) for part in label)
        return spec.text(label)

    def term_degree(label) -> int:
        if tensor_terms:
            return sum(spec.degree(part) for part in label)
        return spec.degree(label)

    items = sorted(x.terms.items(), key=lambda t: (term_degree(t[0]), label_text(t[0])))
    return [{"label": label_text(label), "coeff": _coeff_text(c)} for label, c in items]


def _emit(x: LinComb, spec: BasisSpec, fmt: str, tensor_terms: bool = False) -> None:
    if fmt == "json":
        payload = {
            "algebra": spec.algebra,
            "basis": spec.basis,
            "terms": _json_terms(x, spec, tensor_terms),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_format_terms(x, spec, tensor_terms))


# ---------------------------------------------------------------------------
# count families

def _stalactic_count(family: str):
    return lambda n: stalactic.class_count(family, n)


_COUNTS: dict[str, Callable] = {
    "endofunctions": lambda n: sum(1 for _ in enumerate_family("endofunctions", n)),
    "permutations": lambda n: sum(1 for _ in enumerate_family("permutations", n)),
    "parking": lambda n: sum(1 for _ in enumerate_family("parking", n)),
    "nondecreasing-parking": lambda n: sum(
        1 for _ in enumerate_family("nondecreasing_parking", n)
    ),
    "set-partitions": lambda n: sum(1 for _ in enumerate_family("set_partitions", n)),
    "initial-words": lambda n: sum(1 for _ in enumerate_family("initial_words", n)),
    "involutions": lambda n: sum(1 for _ in enumerate_family("involutions", n)),
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

def _verify(algebra: str, max_degree: int) -> tuple[int, list[str]]:
    lines: list[str] = []
    failed = False

    def run_hopf(adapter, note: str = "") -> None:
        nonlocal failed
        report = hopf_check(adapter, max_degree)
        for line in report.lines():
            lines.append(line)
        if not report.passed:
            failed = True

    if algebra == "eqsym":
        run_hopf(eqsym.algebra())
        res = duality_check(
            eqsym.algebra(), eqsym.coproduct_S, min(max_degree, 4),
            dual_product=eqsym.product_S, primal_coproduct=eqsym.coproduct_M,
        )
        lines.append(f"duality-consistency: {'ok' if res.passed else f'FAIL at {res.counterexample}'}")
        failed = failed or not res.passed
    elif algebra == "sgqsym":
        run_hopf(sgqsym.algebra())
        res = duality_check(
            sgqsym.algebra(), sgqsym.coproduct_S, min(max_degree, 4),
            dual_product=sgqsym.product_S, primal_coproduct=sgqsym.coproduct_M,
        )
        lines.append(f"duality-consistency: {'ok' if res.passed else f'FAIL at {res.counterexample}'}")
        failed = failed or not res.passed
    elif algebra == "piqsym":
        run_hopf(sgqsym.piqsym_algebra())
    elif algebra == "wsym":
        run_hopf(sgqsym.wsym_algebra())
    elif algebra == "qsym-embed":
        run_hopf(sgqsym.qsym_algebra())
    elif algebra == "sym-embed":
        run_hopf(sgqsym.sym_algebra())
    elif algebra == "phisym":
        run_hopf(phisym.algebra())
    elif algebra == "cpqsym":
        run_hopf(parkfunc.algebra())
    elif algebra == "ccqsym":
        run_hopf(parkfunc.cc_algebra())
        res = duality_check(
            parkfunc.cc_algebra(), parkfunc.cc_dual_coproduct, min(max_degree, 4),
            dual_product=parkfunc.cc_dual_product,
            primal_coproduct=parkfunc.cc_coproduct,
        )
        lines.append(f"duality-consistency: {'ok' if res.passed else f'FAIL at {res.counterexample}'}")
        failed = failed or not res.passed
    elif algebra == "fqsym-q":
        ok = True
        from .words import permutations

        for i in range(1, max_degree):
            for j in range(1, max_degree - i + 1):
                for a in permutations(i):
                    for b in permutations(j):
                        if not qdeform.fqsym_twisted_morphism_check(a, b):
                            ok = False
                            lines.append(f"twisted-morphism: FAIL at {(a, b)}")
        if ok:
            lines.append("twisted-morphism: ok")
        cocom = qdeform.cocommutativity_check(min(max_degree, 4))
        lines.append(f"q0-cocommutativity: {'yes' if cocom else 'no'}")
        failed = failed or not ok or not cocom
    else:
        raise KeyError(f"no verification registered for algebra {algebra!r}")
    return (1 if failed else 0), lines


VERIFIABLE = [
    "eqsym", "sgqsym", "piqsym", "wsym", "qsym-embed", "sym-embed",
    "phisym", "cpqsym", "ccqsym", "fqsym-q",
]


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
        if args.command == "product":
            if spec.product is None:
                print(f"no product registered for {args.algebra}:{spec.basis}",
                      file=sys.stderr)
                return 2
            x, y = (spec.parse(e) for e in args.elements)
            _emit(spec.product(x, y), spec, args.format)
        else:
            if spec.coproduct is None:
                print(f"no coproduct registered for {args.algebra}:{spec.basis}",
                      file=sys.stderr)
                return 2
            (x,) = (spec.parse(e) for e in args.elements)
            _emit(spec.coproduct(x), spec, args.format, tensor_terms=True)
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
                ("Sp", "phi"): lambda x: phisym.sprime_to_phi(
                    LinComb("phisym:phi", x.terms)
                ),
                ("Ss", "phi"): lambda x: phisym.ssecond_to_phi(
                    LinComb("phisym:phi", x.terms)
                ),
            }
            key = (args.src, args.dst)
            if key not in conversions:
                print(f"unsupported conversion {args.src} -> {args.dst}",
                      file=sys.stderr)
                return 2
            label = word_from_text(args.element)
            x = LinComb.basis("phisym:phi", label)
            out = conversions[key](x)
            _emit(out, _lookup("phisym", args.dst), args.format)
            return 0
        # classical symmetric functions
        if args.src not in symfunc.BASES or args.dst not in symfunc.BASES:
            print(f"unsupported basis name {args.src!r} or {args.dst!r}",
                  file=sys.stderr)
            return 2
        lam = _partition_from_text(args.element)
        out = symfunc.convert(symfunc.sym(args.src, lam), args.dst)
        spec = BasisSpec("sym-classical", args.dst, args.dst,
                         _partition_from_text, composition_to_text, _partition_degree)
        _emit(out, spec, args.format)
        return 0

    if args.command == "count":
        print(_COUNTS[args.family](args.n))
        return 0

    if args.command == "insert":
        word = _letters_from_text(args.word)
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
