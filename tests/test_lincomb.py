import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hopfcomb.coeffs import QPoly, coeff_from_text
from hopfcomb.lincomb import (
    LinComb,
    bilinear,
    pairing,
    tensor,
    tensor_apply,
    tensor_kind,
    tensor_mul,
    tensor_swap,
    twisted_tensor_mul,
)
from hopfcomb import qdeform
from hopfcomb.words import permutations

qpolys = st.lists(st.integers(-9, 9), max_size=5).map(QPoly)


@given(qpolys, qpolys, qpolys)
def test_qpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + QPoly() == a
    assert a * QPoly.const(1) == a
    assert a - a == QPoly()


def _raw_op(op, xs, ys):
    """``op`` on raw coefficient lists, normalised only at the end by the constructor."""
    if op == "*":
        out = [0] * max(len(xs) + len(ys) - 1, 0)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i + j] += x * y
    else:
        sign = 1 if op == "+" else -1
        out = [x + sign * y for x, y in itertools.zip_longest(xs, ys, fillvalue=0)]
    return QPoly(out).coeffs


raw_coeffs = st.lists(st.integers(-3, 3), max_size=5)


@given(raw_coeffs, raw_coeffs, st.integers(0, 5), st.integers(-3, 3))
def test_qpoly_arithmetic_matches_the_normalising_constructor(xs, noise, keep, k):
    # ys agrees with -xs above position ``keep``, so sums cancel from the top
    ys = noise[:keep] + [-x for x in xs[keep:]]
    a, b = QPoly(xs), QPoly(ys)
    assert (a + b).coeffs == _raw_op("+", xs, ys)
    assert (a - b).coeffs == _raw_op("-", xs, ys)
    assert (b - a).coeffs == _raw_op("-", ys, xs)
    assert (a * b).coeffs == _raw_op("*", xs, ys)
    assert (a == b) == (QPoly(xs).coeffs == QPoly(ys).coeffs)
    for op, left, right in (("+", a + k, k + a), ("*", a * k, k * a)):
        assert left.coeffs == right.coeffs == _raw_op(op, xs, [k])
    assert (a - k).coeffs == _raw_op("-", xs, [k])
    assert (k - a).coeffs == _raw_op("-", [k], xs)
    assert (a == k) == (k == a) == (a.coeffs == QPoly([k]).coeffs)


@given(qpolys, st.integers(-3, 3))
def test_qpoly_evaluation_is_ring_hom(a, x):
    b = QPoly((1, -2, 3))
    assert (a * b).subs(x) == a.subs(x) * b.subs(x)
    assert (a + b).subs(x) == a.subs(x) + b.subs(x)


def test_qpoly_printing_normal_form():
    q = QPoly.gen()
    assert str(3 * q**2 + 1) == "3*q^2+1"
    assert str(q) == "q"
    assert str(QPoly()) == "0"
    assert str(-q + 1) == "-q+1"
    assert QPoly((0, 0, 0)) == 0
    for poly in [3 * q**2 + 1, -(q**3) + 2, QPoly.const(-7), q]:
        assert coeff_from_text(str(poly)) == poly
    assert coeff_from_text("12") == 12


@pytest.mark.parametrize("c", [0, 1, -3, 7])
def test_constant_qpoly_hashes_as_its_int(c):
    # equal values hash equal, so a constant and its int are one key
    assert hash(QPoly.const(c)) == hash(c)
    assert len({QPoly.const(c), c}) == 1


def test_equal_qpolys_hash_equal():
    q = QPoly.gen()
    assert hash(3 * q**2 + 1) == hash(QPoly((1, 0, 3))) == hash(q * (3 * q) + 1)
    assert len({-q + 2, 2 - q, QPoly((2, -1, 0))}) == 1


def test_lincomb_is_unhashable():
    with pytest.raises(TypeError):
        hash(LinComb.basis("t", (1,)))


def test_lincomb_basics():
    x = LinComb.basis("t", (1, 2)) + LinComb.basis("t", (2, 1), 2)
    assert x[(2, 1)] == 2 and x[(9,)] == 0
    assert x - x == LinComb("t")
    assert not LinComb("t", {(1,): 0})
    assert (0 * x) == LinComb("t")
    assert x.scale(3)[(1, 2)] == 3


def test_kind_mixing_rejected():
    x = LinComb.basis("a", (1,))
    y = LinComb.basis("b", (1,))
    with pytest.raises(ValueError):
        x + y


def test_bilinearity():
    rule = lambda a, b: LinComb.basis("t", a + b)
    x = LinComb.basis("t", (1,), 2)
    y = LinComb.basis("t", (1,), 3)
    assert bilinear(x, y, rule)[(1, 1)] == 6


def test_pairing_dual_delta():
    m = LinComb.basis("m", (1, 2))
    assert pairing(m, LinComb.basis("m", (1, 2))) == 1
    assert pairing(m, LinComb.basis("m", (2, 1))) == 0
    x = LinComb.basis("m", (1,), 2) + LinComb.basis("m", (2,), 5)
    y = LinComb.basis("m", (1,), 7)
    assert pairing(x, y) == 14


def test_pairing_grading_diagonal():
    x = LinComb.basis("m", (1,))
    y = LinComb.basis("m", (1, 2))
    assert pairing(x, y) == 0


def test_tensor_swap_and_mul():
    x = LinComb.basis("t", (1,))
    y = LinComb.basis("t", (2,))
    t = tensor(x, y)
    assert tensor_swap(t) == tensor(y, x)
    concat = lambda a, b: LinComb.basis("t", a + b)
    assert tensor_mul(t, t, concat)[((1, 1), (2, 2))] == 1


def test_twisted_tensor_product_small():
    # (F_1 (x) F_1) * (F_1 (x) 1) picks up one power of q
    t1 = tensor(LinComb.basis("fqsym-q:F", (1,)), LinComb.basis("fqsym-q:F", (1,)))
    t2 = tensor(LinComb.basis("fqsym-q:F", (1,)), LinComb.basis("fqsym-q:F", ()))
    out = twisted_tensor_mul(t1, t2, qdeform.product_F, qdeform.chi_len)
    q = QPoly.gen()
    assert out[((1, 2), (1,))] == q
    assert out[((2, 1), (1,))] == q


def test_twisted_tensor_at_q1_is_plain_on_random_pairs():
    rng = random.Random(7)
    perms = [s for n in range(0, 3) for s in permutations(n)]
    for _ in range(200):
        pairs1 = {(rng.choice(perms), rng.choice(perms)): rng.randint(1, 3) for _ in range(2)}
        pairs2 = {(rng.choice(perms), rng.choice(perms)): rng.randint(1, 3) for _ in range(2)}
        t1 = LinComb("fqsym-q:F(x)fqsym-q:F", pairs1)
        t2 = LinComb("fqsym-q:F(x)fqsym-q:F", pairs2)
        twisted = twisted_tensor_mul(t1, t2, qdeform.product_F, qdeform.chi_len)
        plain = tensor_mul(t1, t2, qdeform.product_F)
        subs = lambda c: QPoly.coerce(c).subs(1)
        assert twisted.map_coeffs(subs) == plain.map_coeffs(subs)


# ---------------------------------------------------------------------------
# the accumulators: cancelling terms vanish, empty inputs keep their kind

UNITS = [1, QPoly.gen()]
TT = "t(x)t"


def _no_zeros(x: LinComb) -> bool:
    return all(x.terms.values())


@pytest.mark.parametrize("u", UNITS)
def test_constructor_adopts_the_dict_and_drops_zeros_in_place(u):
    d = {(1,): u, (2,): 0 * u, (3,): -u, (4,): u - u}
    x = LinComb("t", d)
    assert x.terms is d and d == {(1,): u, (3,): -u}
    assert LinComb("t", d).terms is d
    assert LinComb.basis("t", (1,), 0 * u) == LinComb("t")


@pytest.mark.parametrize("u", UNITS)
def test_apply_accumulates_without_zero_terms(u):
    shared = {(1,): LinComb("u", {(9,): u, (8,): -u}), (2,): LinComb("u", {(8,): u})}
    snapshot = {label: dict(v.terms) for label, v in shared.items()}
    out = LinComb("t", {(1,): 1, (2,): 1}).apply(shared.__getitem__)
    assert out == LinComb("u", {(9,): u}) and _no_zeros(out)
    cancelled = LinComb("t", {(1,): 1, (3,): -1}).apply(
        lambda l: shared[(1,)] if l == (3,) else shared[l])
    assert cancelled.kind == "u" and not cancelled.terms
    assert {label: v.terms for label, v in shared.items()} == snapshot


def test_apply_on_zero_keeps_the_kind():
    assert LinComb("t").apply(lambda l: LinComb.basis("u", l)).kind == "t"
    assert LinComb("t").apply(lambda l: LinComb.basis("u", l), kind="u").kind == "u"
    with pytest.raises(ValueError):
        LinComb("t", {(1,): 1, (2,): 1}).apply(lambda l: LinComb.basis(str(l), l))


@pytest.mark.parametrize("u", UNITS)
def test_map_labels_sums_colliding_images_in_first_image_order(u):
    x = LinComb("t", {(3, 1): u, (1,): 2 * u, (1, 2): -u, (2,): u, (4, 4): u})
    out = x.map_labels(len, "n")
    assert out.kind == "n"
    assert list(out.terms.items()) == [(2, u), (1, 3 * u)]
    assert x.terms == {(3, 1): u, (1,): 2 * u, (1, 2): -u, (2,): u, (4, 4): u}


@pytest.mark.parametrize("u", UNITS)
def test_map_labels_drops_images_that_cancel(u):
    out = LinComb("t", {(1, 2): u, (2, 1): -u, (3,): u}).map_labels(len, "n")
    assert list(out.terms.items()) == [(1, u)] and _no_zeros(out)
    assert LinComb("t", {(1,): u, (2,): -u}).map_labels(len, "n") == LinComb("n")
    assert LinComb("t").map_labels(len, "n").kind == "n"


@pytest.mark.parametrize("u", UNITS)
def test_bilinear_accumulates_without_zero_terms(u):
    rule = lambda a, b: LinComb("u", {(len(a + b),): u if a == (1,) else -u, a + b: 1})
    out = bilinear(LinComb("t", {(1,): 1, (2,): 1}), LinComb.basis("t", (3,)), rule)
    assert out == LinComb("u", {(1, 3): 1, (2, 3): 1}) and _no_zeros(out)
    assert bilinear(LinComb("t"), LinComb.basis("t", (3,)), rule).kind == "t"
    assert bilinear(LinComb("t"), LinComb("t"), rule, kind="u").kind == "u"


def _length_product(x, y):
    return LinComb.basis("t", (len(x + y),))


@pytest.mark.parametrize("u", UNITS)
def test_tensor_mul_accumulates_without_zero_terms(u):
    t1 = LinComb(TT, {((1,), ()): u, ((2,), ()): -u, ((1, 1), ()): u})
    t2 = LinComb(TT, {((), ()): 1})
    out = tensor_mul(t1, t2, _length_product)
    assert out == LinComb(TT, {((2,), (0,)): u}) and _no_zeros(out)
    assert tensor_mul(LinComb(TT), t2, _length_product) == LinComb(TT)


@pytest.mark.parametrize("u", UNITS)
def test_twisted_tensor_mul_accumulates_without_zero_terms(u):
    q = QPoly.gen()
    chi = lambda b, a2: q ** len(b)
    t1 = LinComb(TT, {((1,), (1,)): u, ((2,), (2,)): -u})
    t2 = LinComb(TT, {((), (1,)): 1})
    out = twisted_tensor_mul(t1, t2, _length_product, chi)
    assert out == LinComb(TT) and not out.terms
    t1 = LinComb(TT, {((1,), (1,)): u, ((2,), (2,)): -u, ((1,), (1, 1)): u})
    out = twisted_tensor_mul(t1, t2, _length_product, chi)
    assert out == LinComb(TT, {((1,), (3,)): u * q**2}) and _no_zeros(out)
    assert twisted_tensor_mul(LinComb(TT), t2, _length_product, chi).kind == TT


@pytest.mark.parametrize("u", UNITS)
def test_tensor_apply_accumulates_without_zero_terms(u):
    def split(label):
        return LinComb(TT, {((), (len(label),)): 1, (label, ()): 1})

    t = LinComb(TT, {((1,), (5,)): u, ((2,), (5,)): -u})
    out = tensor_apply(t, 0, split)
    assert out == LinComb("t(x)t(x)t", {((1,), (), (5,)): u, ((2,), (), (5,)): -u})
    assert _no_zeros(out)
    assert tensor_apply(LinComb(TT), 0, split) == LinComb("t(x)t(x)t")


def _slicing_tensor_apply(t, slot, rule):
    """Oracle for ``tensor_apply``: splice each value into the label by slicing."""
    terms: dict = {}
    kind = None
    for label, c in t.terms.items():
        expanded = rule(label[slot])
        kind = expanded.kind
        for inner, ci in expanded.terms.items():
            new_label = label[:slot] + inner + label[slot + 1:]
            terms[new_label] = terms.get(new_label, 0) + c * ci
    base = (kind or t.kind).split("(x)")[0]
    return LinComb(tensor_kind(base, t.kind.count("(x)") + 2), terms)


small_labels = st.lists(st.integers(1, 3), max_size=2).map(tuple)


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("coeffs", [st.integers(-2, 2), qpolys], ids=["int", "QPoly"])
@given(data=st.data())
def test_tensor_apply_pair_path_matches_the_slicing_loop(slot, coeffs, data):
    pair_terms = st.dictionaries(st.tuples(small_labels, small_labels), coeffs, max_size=5)
    t = LinComb(TT, data.draw(pair_terms))
    table = data.draw(st.dictionaries(small_labels, pair_terms, max_size=4))

    def rule(label):
        return LinComb("u(x)u", dict(table.get(label, {((), label): 1})))

    out = tensor_apply(t, slot, rule)
    expected = _slicing_tensor_apply(t, slot, rule)
    assert out == expected and list(out.terms) == list(expected.terms)
    assert _no_zeros(out)
