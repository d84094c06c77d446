import doctest

import pytest

from hopfcomb import coeffs, eqsym, phisym, stalactic, symfunc, words


@pytest.mark.parametrize("module", [words, coeffs, stalactic, phisym, symfunc, eqsym])
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
