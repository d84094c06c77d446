"""Resource guards for enumeration and verification sweeps.

All exhaustive routines are meant for desk-scale arguments.  Every bound
lives in the one :data:`LIMITS` value, read at call time, so a test that
replaces it reaches every guard; the environment variable
``HOPFCOMB_MAX_DEGREE`` overrides the degree bound used by verification
sweeps.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace


class LimitExceeded(ValueError):
    """Raised when an enumeration is requested beyond its configured bound."""


@dataclass(frozen=True)
class Limits:
    endofunctions: int = 8
    permutations: int = 9
    parking: int = 8
    nondecreasing_parking: int = 14
    set_partitions: int = 11
    initial_words: int = 8
    involutions: int = 10
    # the verify sweeps at these bounds take about 2 s each on a 2-vCPU Xeon
    compositions: int = 10
    partitions: int = 14
    rewrite_length: int = 10
    symfunc_degree: int = 10
    max_degree: int = 6
    # labels, pairs and triples of a verify sweep; eqsym's 61,525 at degree 6
    # take about 2 s on a 2-vCPU Xeon, its 1,036,206 at degree 7 minutes
    sweep_cases: int = 200_000


LIMITS = Limits()


def current_limits() -> Limits:
    """The active limits, honouring the ``HOPFCOMB_MAX_DEGREE`` override.

    Only ``max_degree`` reads the environment, so only the sweeps that use it
    call this; a malformed value raises ``ValueError`` naming the variable.
    """
    override = os.environ.get("HOPFCOMB_MAX_DEGREE")
    if override is None:
        return LIMITS
    try:
        max_degree = int(override)
    except ValueError:
        raise ValueError(
            f"HOPFCOMB_MAX_DEGREE must be an integer, got {override!r}"
        ) from None
    return replace(LIMITS, max_degree=max_degree)


def guard(kind: str, n: int) -> None:
    """Refuse an enumeration of family ``kind`` at size ``n`` beyond the bound.

    The message names the knob that holds the bound, ``Limits.<kind>``; a
    family with no such knob has no enumerator and is refused at any size.
    """
    bound = getattr(LIMITS, kind, None)
    if bound is None:
        raise ValueError(f"{kind} cannot be enumerated: there is no Limits.{kind} bound")
    if n > bound:
        raise LimitExceeded(
            f"{kind} enumeration at n={n} exceeds configured bound {bound} (Limits.{kind})")
