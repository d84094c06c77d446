import itertools

from hopfcomb import parkfunc, phisym, sgqsym
from hopfcomb.lincomb import LinComb, bilinear, tensor_kind
from hopfcomb.realize import classify_biword
from hopfcomb.words import (
    block_composition,
    canonical_set_partition,
    consecutive_blocks,
    cycle_type,
    is_nondecreasing,
    sort_composition,
    word_from_text,
)


def lc(kind, *pairs):
    """LinComb from (label, coeff) pairs; labels given as text words."""
    out = LinComb(kind)
    for label, coeff in pairs:
        if isinstance(label, str):
            label = word_from_text(label)
        out = out + LinComb.basis(kind, label, coeff)
    return out


def tensor_terms(kind, *triples):
    """Tensor LinComb from (left, right, coeff) triples with text labels."""
    terms = {}
    for left, right, coeff in triples:
        if isinstance(left, str):
            left = word_from_text(left)
        if isinstance(right, str):
            right = word_from_text(right)
        terms[(left, right)] = coeff
    return LinComb(f"{kind}(x){kind}", terms)


# phisym's multiplicative bases: (expansion into phi, conversion from phi, kind)
PHI_ROUTES = {
    "Sp": (phisym.sprime_expand, phisym.phi_to_sprime, phisym.SPRIME_KIND),
    "Ss": (phisym.ssecond_expand, phisym.phi_to_ssecond, phisym.SSECOND_KIND),
}


def phi_route_product(basis, a, b):
    """Product in a multiplicative basis of phisym computed in phi: expand
    both factors, multiply there, convert the product back."""
    expand, convert, _ = PHI_ROUTES[basis]
    return convert(bilinear(expand(a), expand(b), phisym.product_phi))


def phi_route_coproduct(basis, sigma):
    """Coproduct in a multiplicative basis of phisym computed in phi: expand,
    comultiply there, convert each tensor factor back."""
    expand, convert, kind = PHI_ROUTES[basis]
    cop = expand(sigma).apply(phisym.coproduct_phi, kind=tensor_kind(phisym.PHI_KIND))
    return phisym._convert_tensor(cop, convert, kind)


# The set-partition rules written without reading the canonical form of
# their inputs: every label they build is sorted again through
# canonical_set_partition.  They are the oracles, term for term and in
# insertion order, of sgqsym's rules of the same names.

def relabel_partition(pi, positions):
    """Push a partition of [n] into an n-subset via the increasing bijection."""
    target = sorted(positions)
    return canonical_set_partition(tuple(target[a - 1] for a in b) for b in pi)


def restrict_partition(pi, positions):
    """Standardize the restriction of a partition to a subset of its ground set."""
    rank = {p: i for i, p in enumerate(sorted(positions), start=1)}
    keep = set(positions)
    blocks = [tuple(rank[a] for a in b if a in keep) for b in pi]
    return canonical_set_partition(b for b in blocks if b)


def sorting_product_upi(pi1, pi2):
    n = sum(len(b) for b in pi1)
    m = sum(len(b) for b in pi2)
    terms = {}
    ground = range(1, n + m + 1)
    for chosen in itertools.combinations(ground, n):
        complement = tuple(i for i in ground if i not in chosen)
        merged = canonical_set_partition(
            relabel_partition(pi1, chosen) + relabel_partition(pi2, complement)
        )
        terms[merged] = terms.get(merged, 0) + 1
    return LinComb(sgqsym.UPI_KIND, terms)


def sorting_coproduct_upi(pi):
    n = sum(len(b) for b in pi)
    terms = {}
    for k in range(n + 1):
        left = [b for b in pi if all(a <= k for a in b)]
        right = [b for b in pi if all(a > k for a in b)]
        if sum(len(b) for b in left) != k:
            continue
        key = (
            canonical_set_partition(left),
            restrict_partition(canonical_set_partition(right), range(k + 1, n + 1)),
        )
        terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(sgqsym.UPI_KIND), terms)


def sorting_product_Mw(pi1, pi2):
    n = sum(len(b) for b in pi1)
    shifted = tuple(tuple(a + n for a in b) for b in pi2)
    b1 = list(relabel_partition(pi1, range(1, n + 1)))
    terms = {}
    k_max = min(len(b1), len(shifted))
    for k in range(k_max + 1):
        for left in itertools.combinations(range(len(b1)), k):
            rest_left = [b1[i] for i in range(len(b1)) if i not in left]
            for right in itertools.permutations(range(len(shifted)), k):
                merged = [tuple(sorted(b1[i] + shifted[j])) for i, j in zip(left, right)]
                rest_right = [
                    shifted[j] for j in range(len(shifted)) if j not in right
                ]
                pi = canonical_set_partition(merged + rest_left + rest_right)
                terms[pi] = terms.get(pi, 0) + 1
    return LinComb(sgqsym.MW_KIND, terms)


def sorting_coproduct_Mw(pi):
    terms = {}
    blocks = list(pi)
    for size in range(len(blocks) + 1):
        for chosen in itertools.combinations(range(len(blocks)), size):
            inside = [blocks[i] for i in chosen]
            outside = [blocks[i] for i in range(len(blocks)) if i not in chosen]
            left = restrict_partition(
                canonical_set_partition(inside), [a for b in inside for a in b]
            )
            right = restrict_partition(
                canonical_set_partition(outside), [a for b in outside for a in b]
            )
            key = (left, right)
            terms[key] = terms.get(key, 0) + 1
    return LinComb(tensor_kind(sgqsym.MW_KIND), terms)


SORTING_ROUTES = {
    "product_upi": sorting_product_upi,
    "coproduct_upi": sorting_coproduct_upi,
    "product_Mw": sorting_product_Mw,
    "coproduct_Mw": sorting_coproduct_Mw,
}


# The label maps written as loops that sum each image's coefficients into a
# dict.  They are the oracles, term for term and in insertion order, of the
# rules of the same names, which map their labels through LinComb.map_labels.

def project_Y(x):
    terms = {}
    for sigma, c in x.terms.items():
        lam = cycle_type(sigma)
        terms[lam] = terms.get(lam, 0) + c
    return LinComb(phisym.Y_KIND, terms)


def looping_product_Y(lam1, lam2):
    return project_Y(phisym.product_phi(phisym.type_representative(lam1),
                                        phisym.type_representative(lam2)))


def looping_coproduct_Y(lam):
    cop = phisym.coproduct_phi(phisym.type_representative(lam))
    terms = {}
    for (a, b), c in cop.terms.items():
        key = (cycle_type(a), cycle_type(b))
        terms[key] = terms.get(key, 0) + c
    return LinComb(tensor_kind(phisym.Y_KIND), terms)


def project_V(x):
    terms = {}
    for pi, c in x.terms.items():
        comp = block_composition(pi)
        terms[comp] = terms.get(comp, 0) + c
    return LinComb(sgqsym.V_KIND, terms)


def looping_product_V(comp1, comp2):
    return project_V(sgqsym.product_Mw(consecutive_blocks(comp1), consecutive_blocks(comp2)))


def looping_cc_product(p, q):
    if not (is_nondecreasing(p) and is_nondecreasing(q)):
        raise ValueError("class labels must be nondecreasing parking functions")
    out = {}
    for h, c in parkfunc.product_Mpa(p, q).terms.items():
        if is_nondecreasing(h):
            out[h] = out.get(h, 0) + c
    return LinComb(parkfunc.CC_KIND, out)


def looping_collect_biwords(x):
    out = {}
    for (top, bottom), c in x.terms.items():
        sigma = classify_biword(top, bottom)
        out[sigma] = out.get(sigma, 0) + c
    return LinComb("phisym:phi", out)


def looping_bell_polynomial(n):
    power = LinComb.basis(sgqsym.MW_KIND, ((1,),))
    for _ in range(n - 1):
        power = power.apply(lambda pi: sgqsym.product_Mw(pi, ((1,),)), kind=sgqsym.MW_KIND)
    coeffs = {}
    for pi, c in power.terms.items():
        lam = sort_composition(block_composition(pi))
        coeffs[lam] = coeffs.get(lam, 0) + c
    return coeffs


LOOPING_ROUTES = {
    "product_Y": looping_product_Y,
    "coproduct_Y": looping_coproduct_Y,
    "product_V": looping_product_V,
    "cc_product": looping_cc_product,
    "collect_biwords": looping_collect_biwords,
    "bell_polynomial": looping_bell_polynomial,
}
