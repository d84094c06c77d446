from hopfcomb.lincomb import LinComb
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
