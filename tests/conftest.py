from hopfcomb import phisym
from hopfcomb.lincomb import LinComb, bilinear, tensor_kind
from hopfcomb.words import word_from_text


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
