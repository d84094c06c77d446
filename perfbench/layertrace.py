"""Layer tracing from outside the library.

`install()` replaces selected public functions and methods of hopfcomb with
timing wrappers.  Every reference to the original function object is
replaced: module globals (which covers `from .words import shuffle`), dict
values such as the CLI's basis registry and count table, and the fields of
the frozen `BasisSpec` records inside them.  Nothing in `src/` changes.

Each wrapped call is a span.  Hot layers (rules, `LinComb` arithmetic, word
primitives) are aggregated in memory per layer: calls, inclusive time,
self time (inclusive time minus the part covered by traced children) and,
for product and coproduct rules, the set of distinct arguments.  Coarse
layers (`cli.main`, `hopf_check`, `duality_check`) also keep every span as
(id, name, start, end, parent id, self time).

Counting conventions:
- `calls` and inclusive time count only entries from outside the layer, so
  recursion and nested calls of the same layer are not counted twice.
- Product and coproduct rules of all modules form one family: a rule call
  counts only when no other rule is running.  These are the cases the
  caller asked for; rules that call other rules internally do not inflate
  the counts.
"""
from __future__ import annotations

import dataclasses
import statistics
import sys
from time import perf_counter

RULE_MODULES = ("eqsym", "sgqsym", "phisym", "parkfunc", "qdeform")

# layer name -> (module, [function or Class.method names])
LAYERS = {
    "eqsym.product": ("eqsym", ["product_M", "product_S"]),
    "eqsym.coproduct": ("eqsym", ["coproduct_M", "coproduct_S"]),
    "sgqsym.product": ("sgqsym", [
        "product_M", "product_S", "product_upi", "product_Mw", "product_uq",
        "product_ul", "product_V", "product_M_splitting", "product_M_dual_count"]),
    "sgqsym.coproduct": ("sgqsym", [
        "coproduct_M", "coproduct_S", "coproduct_upi", "coproduct_Mw",
        "coproduct_uq", "coproduct_ul"]),
    "phisym.product": ("phisym", [
        "product_phi", "product_sprime", "product_ssecond", "product_Y"]),
    "phisym.coproduct": ("phisym", [
        "coproduct_phi", "coproduct_sprime", "coproduct_ssecond", "coproduct_Y"]),
    "parkfunc.product": ("parkfunc", [
        "product_Mpa", "cc_product", "cc_dual_product", "unlabelled_product",
        "unlabelled_product_brute", "forest_product"]),
    "parkfunc.coproduct": ("parkfunc", [
        "coproduct_Mpa", "cc_coproduct", "cc_dual_coproduct", "unlabelled_coproduct"]),
    "qdeform.product": ("qdeform", ["product_F", "product_S_ncsf", "product_F_plain"]),
    "qdeform.coproduct": ("qdeform", [
        "coproduct_q_M", "coproduct_q_S", "coproduct_q_F", "coproduct_q1_F",
        "ordinary_coproduct_F", "q0_coproduct"]),
    "cli": ("cli", ["main"]),
    "axioms.hopf_check": ("axioms", ["hopf_check"]),
    "axioms.duality_check": ("axioms", ["duality_check"]),
    "lincomb.add": ("lincomb", ["LinComb.__add__"]),
    "lincomb.apply": ("lincomb", ["LinComb.apply"]),
    "lincomb.eq": ("lincomb", ["LinComb.__eq__"]),
    "lincomb.bilinear": ("lincomb", ["bilinear"]),
    "lincomb.tensor_apply": ("lincomb", ["tensor_apply"]),
    "lincomb.tensor_mul": ("lincomb", ["tensor_mul", "twisted_tensor_mul"]),
    "lincomb.pairing": ("lincomb", ["pairing"]),
    "words.shuffle": ("words", ["shuffle"]),
    "words.cut_points": ("words", ["cut_points"]),
    "words.standardize": ("words", ["standardize"]),
    "words.cycles": ("words", ["cycles"]),
    "words.enumerate": ("words", [
        "enumerate_family", "endofunctions", "permutations", "parking_functions",
        "nondecreasing_parking_functions", "set_partitions", "initial_words",
        "involutions"]),
    "stalactic": ("stalactic", [
        "canonical_form", "congruent", "congruence_class", "insert", "class_count",
        "class_count_brute", "class_census_by_letters", "triangle", "triangle_brute",
        "class_product", "class_product_well_defined", "generic_character",
        "c_coefficients", "derangement_route"]),
    "parkfunc.certificates": ("parkfunc", [
        "graph_certificate", "unlabelled_certificates", "endofunction_certificates",
        "unlabelled_count", "forest_certificate", "connected_graph_counts"]),
    "qdeform.census": ("qdeform", [
        "class_census", "q_rewrite", "rewrite_steps", "confluence_check"]),
    "symfunc.convert": ("symfunc", ["convert"]),
    "coeffs.qpoly_mul": ("coeffs", ["QPoly.__mul__"]),
    "coeffs.qpoly_add": ("coeffs", ["QPoly.__add__"]),
    "realize.row": ("realize", ["row_mul", "realize_endofunction", "realize_lincomb"]),
    "realize.biword": ("realize", ["biword_mul", "realize_phi", "collect_biwords"]),
    "realize.qvar": ("realize", ["qvar_mul", "realize_fundamental"]),
}

SPAN_LAYERS = {"cli", "axioms.hopf_check", "axioms.duality_check"}
GENERATOR_LAYERS = {"words.enumerate"}


class Layer:
    __slots__ = ("calls", "depth", "incl", "self_time", "distinct", "items", "copied")

    def __init__(self, track_distinct: bool):
        self.calls = 0
        self.depth = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.distinct = set() if track_distinct else None
        self.items = 0
        self.copied = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.frames: list[list[float]] = []   # [child time] of each open span
        self.rule_depth = 0
        self.spans: list[tuple] = []
        self.span_stack: list[int] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(_is_rule(name))
        return self.layers[name]

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, qualname: str, fn):
        layer = self.layer(name)
        frames = self.frames
        rule = _is_rule(name)
        span = name in SPAN_LAYERS
        add = name == "lincomb.add"
        tracer = self  # the closure below reads and writes the shared counters

        def traced(*args, **kwargs):
            counted = (tracer.rule_depth == 0) if rule else (layer.depth == 0)
            if counted:
                layer.calls += 1
                if rule:
                    try:
                        layer.distinct.add((qualname, args))
                    except TypeError:
                        pass
                if add:
                    layer.copied += len(args[0].terms)
            if rule:
                tracer.rule_depth += 1
            if span:
                span_id = len(tracer.spans)
                parent = tracer.span_stack[-1] if tracer.span_stack else None
                tracer.spans.append(None)
                tracer.span_stack.append(span_id)
            layer.depth += 1
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                own = dur - frame[0]
                layer.self_time += own
                if frames:
                    frames[-1][0] += dur
                layer.depth -= 1
                if rule:
                    tracer.rule_depth -= 1
                if counted:
                    layer.incl += dur
                if span:
                    tracer.span_stack.pop()
                    tracer.spans[span_id] = (span_id, name, t0, t1, parent, own)

        return traced

    def wrap_iterator(self, name: str, fn):
        """Wrap a function returning an iterator: time every `next` and count
        the items handed to callers outside the layer."""
        layer = self.layer(name)
        frames = self.frames

        def items(it):
            while True:
                outer = layer.depth == 0
                layer.depth += 1
                frame = [0.0]
                frames.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    frames.pop()
                    layer.self_time += dur - frame[0]
                    if frames:
                        frames[-1][0] += dur
                    layer.depth -= 1
                    if outer:
                        layer.incl += dur
                if outer:
                    layer.items += 1
                yield item

        def traced(*args, **kwargs):
            return items(iter(fn(*args, **kwargs)))

        return traced

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by the names listed in BENCHMARK.json."""
        out: dict[str, float] = {}
        for mod in RULE_MODULES:
            for op in ("product", "coproduct"):
                layer = self.layer(f"{mod}.{op}")
                distinct = len(layer.distinct)
                out[f"{mod}.{op}.calls"] = layer.calls
                out[f"{mod}.{op}.distinct"] = distinct
                out[f"{mod}.{op}.distinct_ratio"] = distinct / layer.calls if layer.calls else 0.0
                out[f"{mod}.{op}.s"] = layer.incl
        cli_self = [s[5] for s in self.spans if s and s[1] == "cli"]
        out["cli.self_ms"] = 1000 * statistics.median(cli_self) if cli_self else 0.0
        for name in ("axioms.hopf_check", "axioms.duality_check"):
            out[f"{name}.s"] = self.layer(name).incl
            out[f"{name}.self_s"] = self.layer(name).self_time
        add = self.layer("lincomb.add")
        out["lincomb.add.calls"] = add.calls
        out["lincomb.add.terms_copied"] = add.copied
        out["lincomb.add.s"] = add.incl
        for op in ("apply", "bilinear", "tensor_apply", "tensor_mul"):
            out[f"lincomb.{op}.s"] = self.layer(f"lincomb.{op}").incl
            out[f"lincomb.{op}.self_s"] = self.layer(f"lincomb.{op}").self_time
        out["lincomb.eq.s"] = self.layer("lincomb.eq").incl
        out["lincomb.pairing.calls"] = self.layer("lincomb.pairing").calls
        out["lincomb.pairing.s"] = self.layer("lincomb.pairing").incl
        for op in ("shuffle", "cut_points", "standardize", "cycles"):
            out[f"words.{op}.calls"] = self.layer(f"words.{op}").calls
            out[f"words.{op}.s"] = self.layer(f"words.{op}").incl
        out["words.enumerate.items"] = self.layer("words.enumerate").items
        out["words.enumerate.s"] = self.layer("words.enumerate").incl
        for name in ("stalactic", "parkfunc.certificates", "qdeform.census",
                     "symfunc.convert"):
            out[f"{name}.s"] = self.layer(name).incl
        for op in ("mul", "add"):
            out[f"coeffs.qpoly_{op}.calls"] = self.layer(f"coeffs.qpoly_{op}").calls
            out[f"coeffs.qpoly_{op}.s"] = self.layer(f"coeffs.qpoly_{op}").incl
        for name in ("row", "biword", "qvar"):
            out[f"realize.{name}.s"] = self.layer(f"realize.{name}").incl
        return out

    def coverage(self) -> dict[str, int]:
        """Exact distinct-argument counts of every rule layer."""
        return {f"{mod}.{op}": len(self.layer(f"{mod}.{op}").distinct)
                for mod in RULE_MODULES for op in ("product", "coproduct")}


def _is_rule(name: str) -> bool:
    return name.endswith(".product") or name.endswith(".coproduct")


# ---------------------------------------------------------------------------
# patching

def _hopfcomb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopfcomb" or name.startswith("hopfcomb."))]


def replace_everywhere(orig, new) -> int:
    """Point every reference to `orig` inside hopfcomb at `new`."""
    count = 0
    for mod in _hopfcomb_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                count += 1
            elif isinstance(value, dict):
                count += _replace_in_dict(value, orig, new)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, new)
                        count += 1
    return count


def _replace_in_dict(table: dict, orig, new) -> int:
    count = 0
    for key, value in list(table.items()):
        if value is orig:
            table[key] = new
            count += 1
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                if getattr(value, f.name) is orig:
                    object.__setattr__(value, f.name, new)
                    count += 1
    return count


def _resolve(module, qualname: str):
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def install() -> Tracer:
    """Wrap every traced layer of the imported hopfcomb package."""
    import hopfcomb
    import hopfcomb.cli  # noqa: F401  (registers the CLI tables)

    tracer = Tracer()
    for name, (modname, qualnames) in LAYERS.items():
        module = getattr(hopfcomb, modname)
        for qualname in qualnames:
            orig = _resolve(module, qualname)
            if name in GENERATOR_LAYERS:
                new = tracer.wrap_iterator(name, orig)
            else:
                new = tracer.wrap(name, f"{modname}.{qualname}", orig)
            if not replace_everywhere(orig, new):
                raise RuntimeError(f"no reference to {modname}.{qualname} was replaced")
    return tracer
