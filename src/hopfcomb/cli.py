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
from .axioms import GradedBasis, compatibility_check, duality_check, hopf_check
from .limits import LimitExceeded, current_limits
from .lincomb import LinComb
from .words import (FAMILIES, Family, block_composition, cycle_type, family_size,
                    is_nondecreasing, set_partition_to_text, word_from_text, word_to_text)


# Keyed by kind, "algebra:basis"; an algebra's first basis is its default.
# The records are direct values of a module-level dict, so that the
# benchmark's tracer, which patches the fields of such records, reaches
# every rule.  `eqsym.algebra()`, `sgqsym.algebra()` and
# `parkfunc.cc_algebra()` build the three records the benchmark also builds.
_REGISTRY: dict[str, GradedBasis] = {basis.kind: basis for basis in (
    eqsym.algebra(),
    GradedBasis(eqsym.S_KIND, FAMILIES["endofunctions"], eqsym.product_S, eqsym.coproduct_S),
    sgqsym.algebra(),
    GradedBasis(sgqsym.S_KIND, FAMILIES["permutations"], sgqsym.product_S, sgqsym.coproduct_S),
    GradedBasis(sgqsym.UPI_KIND, FAMILIES["set_partitions"],
                sgqsym.product_upi, sgqsym.coproduct_upi),
    GradedBasis(sgqsym.MW_KIND, FAMILIES["set_partitions"],
                sgqsym.product_Mw, sgqsym.coproduct_Mw),
    GradedBasis(sgqsym.UQ_KIND, FAMILIES["compositions"], sgqsym.product_uq, sgqsym.coproduct_uq),
    GradedBasis(sgqsym.UL_KIND, FAMILIES["partitions"], sgqsym.product_ul, sgqsym.coproduct_ul),
    GradedBasis(sgqsym.V_KIND, FAMILIES["compositions"], sgqsym.product_V, None),
    GradedBasis(phisym.PHI_KIND, FAMILIES["permutations"],
                phisym.product_phi, phisym.coproduct_phi),
    GradedBasis(phisym.SPRIME_KIND, FAMILIES["permutations"],
                phisym.product_sprime, phisym.coproduct_sprime),
    GradedBasis(phisym.SSECOND_KIND, FAMILIES["permutations"],
                phisym.product_ssecond, phisym.coproduct_ssecond),
    GradedBasis(phisym.Y_KIND, FAMILIES["partitions"], phisym.product_Y, phisym.coproduct_Y),
    GradedBasis(parkfunc.MPA_KIND, FAMILIES["parking"],
                parkfunc.product_Mpa, parkfunc.coproduct_Mpa),
    parkfunc.cc_algebra(),
    GradedBasis(parkfunc.CC_DUAL_KIND, FAMILIES["nondecreasing_parking"],
                parkfunc.cc_dual_product, parkfunc.cc_dual_coproduct),
    GradedBasis(parkfunc.FOREST_KIND, parkfunc.FORESTS,
                parkfunc.forest_product, parkfunc.forest_coproduct),
    GradedBasis(parkfunc.GRAPH_KIND, parkfunc.PARKING_GRAPHS,
                parkfunc.unlabelled_product, parkfunc.unlabelled_coproduct),
    GradedBasis(qdeform.F_KIND, FAMILIES["permutations"],
                qdeform.product_F, qdeform.coproduct_q_F, qdeform.chi_len),
    GradedBasis(qdeform.QM_KIND, FAMILIES["compositions"], None, qdeform.coproduct_q_M),
    GradedBasis(qdeform.NS_KIND, FAMILIES["compositions"],
                qdeform.product_S_ncsf, qdeform.coproduct_q_S, qdeform.chi_sum),
)}

# algebra -> its default kind, the first registered, in registry order
_DEFAULT_KIND: dict[str, str] = {}
for _kind in _REGISTRY:
    _DEFAULT_KIND.setdefault(_kind.split(":")[0], _kind)

ALGEBRAS = sorted(_DEFAULT_KIND)

# The relations between registered algebras, for `axioms.morphism_check`:
# name -> (source kind, target kind, map from a source label to a target
# value).  The entries name their records by kind, looked up in `_REGISTRY`
# when a check runs, so that the benchmark's tracer reaches every rule.
MORPHISMS: dict[str, tuple[str, str, Callable]] = {
    "upi->M": (sgqsym.UPI_KIND, sgqsym.M_KIND, sgqsym.upi_expand),
    "uq->M": (sgqsym.UQ_KIND, sgqsym.M_KIND, sgqsym.uq_expand),
    "ul->M": (sgqsym.UL_KIND, sgqsym.M_KIND, sgqsym.ul_expand),
    "phi->Y": (phisym.PHI_KIND, phisym.Y_KIND,
               lambda sigma: LinComb.basis(phisym.Y_KIND, cycle_type(sigma))),
    "Mw->V": (sgqsym.MW_KIND, sgqsym.V_KIND,
              lambda pi: LinComb.basis(sgqsym.V_KIND, block_composition(pi))),
    "Sp->phi": (phisym.SPRIME_KIND, phisym.PHI_KIND, phisym.sprime_expand),
    "Ss->phi": (phisym.SSECOND_KIND, phisym.PHI_KIND, phisym.ssecond_expand),
    # the quotient by the span of the labels that are not nondecreasing
    "Mpa->cc": (parkfunc.MPA_KIND, parkfunc.CC_KIND,
                lambda p: LinComb(parkfunc.CC_KIND, {p: 1} if is_nondecreasing(p) else {})),
}


def _lookup(algebra: str, basis: str | None) -> GradedBasis:
    """A registered basis; without a name, the algebra's first registered one."""
    default = _DEFAULT_KIND.get(algebra)
    if default is None:
        raise KeyError(f"unknown algebra {algebra!r}")
    kind = default if basis is None else f"{algebra}:{basis}"
    if kind not in _REGISTRY:
        raise KeyError(f"unknown basis {basis!r} for algebra {algebra!r}")
    return _REGISTRY[kind]


# phisym's changes of basis, keyed by (from, to) basis name
_PHISYM_CONVERSIONS = {("phi", "Sp"): phisym.phi_to_sprime, ("phi", "Ss"): phisym.phi_to_ssecond,
                       ("Sp", "phi"): phisym.sprime_to_phi, ("Ss", "phi"): phisym.ssecond_to_phi}


def _emit(x: LinComb, kind: str, family: Family, fmt: str, tensor_terms: bool = False) -> None:
    """Print ``x`` as one text line or one JSON object, its terms graded, then
    by their text as that format writes it: "B[a](x)B[b]" in text, "a|b" in JSON."""
    algebra, basis = kind.split(":")
    part, sep = (str, "|") if fmt == "json" else (f"{basis}[{{}}]".format, "(x)")
    rows = []
    for label, c in x.terms.items():
        factors = label if tensor_terms else (label,)
        text = sep.join(part(family.text(f)) for f in factors)
        rows.append((sum(family.degree(f) for f in factors), text, c))
    rows.sort(key=lambda row: row[:2])
    if fmt == "json":
        return _print_json({"algebra": algebra, "basis": basis,
                            "terms": [{"label": text, "coeff": str(c)} for _, text, c in rows]})
    print(" + ".join(text if c == 1 else f"{c}*{text}" if isinstance(c, int) and c >= 0
                     else f"({c})*{text}" for _, text, c in rows) or "0")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _refuse(message: str) -> int:
    """A refusal the parser cannot see: one bare stderr line, exit 2."""
    print(message, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# count families

# counted by closed form or recurrence, and refused where their enumerators are
_LABEL_FAMILIES = ("endofunctions", "permutations", "parking", "nondecreasing_parking",
                   "set_partitions", "initial_words", "involutions")

_COUNTS: dict[str, Callable] = {
    **{family.replace("_", "-"): functools.partial(family_size, family)
       for family in _LABEL_FAMILIES},
    "connected-endofunctions": eqsym.connected_count,
    "free-lie-dims": eqsym.lie_dims,
    "parking-stalactic": lambda n: stalactic.class_count("parking", n),
    "endofunctions-stalactic": lambda n: stalactic.class_count("endofunctions", n),
    "initial-words-stalactic": lambda n: stalactic.class_count("initial_words", n),
    "unlabelled-parking-graphs": parkfunc.unlabelled_count,
    "sylvester-q-classes": lambda n: qdeform.class_census("qS", n),
    "hypoplactic-q-classes": lambda n: qdeform.class_census("qH", n),
}


# ---------------------------------------------------------------------------
# verification sweeps

DUALITY_DEGREE = 5  # duality and q = 0 cocommutativity stop at this degree


def _fqsym_q_checks(max_degree: int) -> tuple[int, list[str]]:
    """fqsym-q's sweep: the twisted morphism, the compatibility law of its
    registered record, on every pair of F labels; then cocommutativity at q = 0."""
    res = compatibility_check(_REGISTRY[qdeform.F_KIND], max_degree)
    cocom = qdeform.cocommutativity_check(min(max_degree, DUALITY_DEGREE))
    lines = [res.line("twisted-morphism"), cocom.line("q0-cocommutativity")]
    return (0 if res.passed and cocom.passed else 1), lines


# The one sweep the registry cannot imply: fqsym-q runs its twisted checks
# instead of `hopf_check`.
_VERIFY: dict[str, Callable] = {"fqsym-q": _fqsym_q_checks}


def _sweepable(basis: GradedBasis) -> bool:
    """Whether `hopf_check` can sweep the record: it has both rules and an
    enumerable family."""
    return None not in (basis.product, basis.coproduct, basis.family.labels)


# The algebras whose default record is sweepable, in registry order.
# `perfbench/make_golden.py` records the sweep in this order; the recorded
# sweep the benchmark runs holds the first ten, from before ncsf-q.
VERIFIABLE = [algebra for algebra, kind in _DEFAULT_KIND.items() if _sweepable(_REGISTRY[kind])]


def _verify(algebra: str, max_degree: int) -> tuple[int, list[str]]:
    """`hopf_check` on the algebra's default record, then `duality_check`
    with the record its ``dual`` names, if any; fqsym-q's plan in `_VERIFY`
    replaces both."""
    if algebra in _VERIFY:
        return _VERIFY[algebra](max_degree)
    alg = _lookup(algebra, None)
    report = hopf_check(alg, max_degree)
    lines = report.lines()
    passed = report.passed
    if alg.dual is not None:
        # the primal rules read the sweep's tables: they hold every value
        # duality asks for, but for a streamed top degree's
        dual = _REGISTRY[alg.dual]
        res = duality_check(
            report.tabled, dual.coproduct, min(max_degree, DUALITY_DEGREE),
            dual_product=dual.product, primal_coproduct=report.tabled.coproduct,
        )
        lines.append(res.line("duality-consistency"))
        passed = passed and res.passed
    return (0 if passed else 1), lines


# ---------------------------------------------------------------------------
# one handler per command; each prints its result and returns the exit code

def _cmd_product(args) -> int:
    """``product`` and ``coproduct``: one rule of one registered basis."""
    spec = _lookup(args.algebra, args.basis)
    rule = getattr(spec, args.command)
    if rule is None:
        return _refuse(f"no {args.command} registered for {spec.kind}")
    labels = [spec.family.parse(e) for e in args.elements]
    _emit(rule(*labels), spec.kind, spec.family, args.format, args.command == "coproduct")
    return 0


def _cmd_pair(args) -> int:
    spec = _lookup(args.algebra, args.basis)
    if len(args.elements) == 3 and spec.product is None:
        return _refuse(f"no product registered for {spec.kind}")
    labels = [spec.family.parse(e) for e in args.elements]
    if len(labels) not in (2, 3):
        return _refuse("pair takes two labels (delta) or three (<x*y, z>)")
    print(spec.product(*labels[:2])[labels[2]] if labels[2:] else int(labels[0] == labels[1]))
    return 0


def _cmd_convert(args) -> int:
    if args.algebra == "phisym":
        convert = _PHISYM_CONVERSIONS.get((args.src, args.dst))
        if convert is None:
            return _refuse(f"unsupported conversion {args.src} -> {args.dst}")
        x = LinComb.basis("phisym:phi", _lookup("phisym", args.src).family.parse(args.element))
        target = _lookup("phisym", args.dst)
        _emit(convert(x), target.kind, target.family, args.format)
        return 0
    # classical symmetric functions
    if args.src not in symfunc.BASES or args.dst not in symfunc.BASES:
        return _refuse(f"unsupported basis name {args.src!r} or {args.dst!r}")
    partitions = FAMILIES["partitions"]
    out = symfunc.convert(symfunc.sym(args.src, partitions.parse(args.element)), args.dst)
    _emit(out, f"sym-classical:{args.dst}", partitions, args.format)
    return 0


def _cmd_count(args) -> int:
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    print(_COUNTS[args.family](args.n))
    return 0


def _cmd_insert(args) -> int:
    text = args.word.strip()
    alphabetic = text.isalpha()
    word = tuple(ord(ch) - 96 for ch in text.lower()) if alphabetic else word_from_text(text)
    if not all(a > 0 for a in word):
        raise ValueError(f"not a word of positive letters: {args.word!r}")
    tableau, q_symbol = stalactic.insert(word)
    letter = (lambda v: chr(96 + v)) if alphabetic else str
    if args.format == "json":
        _print_json({"P": [[letter(col[0]), col[1]] for col in tableau.columns],
                     "Q": [list(b) for b in q_symbol]})
        return 0
    p_word = tableau.word()
    # word_to_text writes the empty word "()"; here it prints as nothing
    print("P:", word_to_text(p_word) if p_word and not alphabetic
          else "".join(letter(a) for a in p_word))
    for row in tableau.rows():
        print("  " + " ".join("." if v is None else letter(v) for v in row))
    print("Q:", set_partition_to_text(q_symbol))
    return 0


def _cmd_triangle(args) -> int:
    if args.rows < 0:
        raise ValueError("rows must be nonnegative")
    for n in range(1, args.rows + 1):
        print(" ".join(str(v) for v in stalactic.triangle(args.name, n)))
    return 0


def _cmd_verify(args) -> int:
    """The degree bound of the sweep is --max-degree, else --limit, else the guard."""
    for knob, value in (("--max-degree", args.max_degree), ("--limit", args.limit)):
        if value is not None:
            break
    else:
        knob, value = "HOPFCOMB_MAX_DEGREE", current_limits().max_degree
    if value < 1:
        raise ValueError(f"{knob} must be at least 1, got {value}")
    code, lines = _verify(args.algebra, value)
    for line in lines:
        print(line)
    return code


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The whole argument tree, built on the first call and shared by every
    later one: parsing reads it and never changes it.  Returns the top parser
    and its subparsers' own ``choices``, each command's parser by name; each
    names its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="hopfcomb",
        description="Exact computations in combinatorial Hopf algebras of "
        "endofunctions, permutations, set partitions, parking functions and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_format(p):
        p.add_argument("--format", default="text", choices=["text", "json"])

    def add_algebra_args(p, nargs: int):
        p.add_argument("--algebra", required=True, choices=ALGEBRAS)
        p.add_argument("--basis", default=None)
        add_format(p)
        p.add_argument("elements", nargs=nargs)

    for name, nargs, help in (("product", 2, "expand a product of two basis elements"),
                              ("coproduct", 1, "expand the coproduct of a basis element")):
        add_algebra_args(command(name, _cmd_product, help), nargs)

    p = command("pair", _cmd_pair, "dual-basis pairing; with three elements, <x*y, z>")
    p.add_argument("--algebra", required=True, choices=ALGEBRAS)
    p.add_argument("--basis", default=None)
    p.add_argument("elements", nargs="+")

    p = command("convert", _cmd_convert, "change of basis")
    p.add_argument("--algebra", required=True, choices=["phisym", "sym-classical"])
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    add_format(p)
    p.add_argument("element")

    p = command("count", _cmd_count, "count a family at a given size")
    p.add_argument("--family", required=True, choices=sorted(_COUNTS))
    p.add_argument("n", type=int)

    p = command("insert", _cmd_insert, "stalactic insertion of a word")
    p.add_argument("word")
    add_format(p)

    p = command("triangle", _cmd_triangle, "rows of a counting triangle")
    p.add_argument("--name", required=True,
                   choices=["narayana", "lah", "tw", "endt", "pascal", "arr"])
    p.add_argument("rows", type=int)

    p = command("verify", _cmd_verify, "run axiom sweeps for an algebra")
    p.add_argument("--algebra", required=True, choices=VERIFIABLE)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="alias for --max-degree resource guard")
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace ``parse_args`` of the top parser gives, but a request
    that starts with a command goes straight to that command's parser: the
    top parser only answers help and refusals.  Arguments left over are
    refused as ``parse_args`` refuses them, with the top parser's usage."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.run(args)
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
