"""The request pool of the `query` workload.

The pool is a fixed, finite list of CLI requests built from a fixed pool
seed, so that every request has a stored expected output
(`golden/query.json`).  The workload seed only chooses which pool entries a
pass sends and in which order; the number of requests of each kind in a
pass is fixed, so the latency mix does not depend on the seed.

This module does not import hopfcomb: it only builds argument lists.
"""
from __future__ import annotations

import random
import shlex

POOL_SEED = "hopfcomb-query-pool-v1"
POOL_PER_BASIS = 24      # pool entries per basis and per operation
PRODUCTS_PER_BASIS = 2   # product requests per basis in one pass
COPRODUCTS_PER_BASIS = 2  # coproduct requests per basis in one pass

# (algebra, basis, label family, max product degree, max coproduct degree);
# basis None means the CLI default.  A max degree of 0 means the basis has
# no registered rule for that operation.  Degrees run from 4 up to the cap;
# caps keep each request well under a second on a desktop core.
BASES = [
    ("eqsym", "M", "endo", 8, 8),
    ("eqsym", "S", "endo", 8, 8),
    ("sgqsym", "M", "perm", 8, 8),
    ("sgqsym", "S", "perm", 8, 8),
    ("piqsym", "upi", "setpart", 7, 8),
    ("wsym", "Mw", "setpart", 7, 8),
    ("qsym-embed", "uq", "comp", 8, 8),
    ("sym-embed", "ul", "part", 8, 8),
    ("ncsf", "V", "comp", 7, 0),
    ("phisym", "phi", "perm", 7, 8),
    ("phisym", "Sp", "perm", 6, 4),
    ("phisym", "Ss", "perm", 6, 4),
    ("phisym", "Y", "part", 6, 6),
    ("cpqsym", "Mpa", "park", 7, 8),
    ("ccqsym", "Mpa", "ndpark", 8, 8),
    ("ccqsym", "S", "ndpark", 8, 8),
    ("forest", "M", "ndpark", 6, 0),
    ("parkgraph", "N", "park", 6, 8),
    ("fqsym-q", "F", "perm", 7, 8),
    ("qsym-q", "M", "comp", 0, 8),
    ("ncsf-q", "S", "comp", 7, 7),
]

# Fixed requests sent in every pass (order shuffled by the seed).  Sizes are
# the largest that finish within a few seconds; see README.md for the sizes
# left out because they run for tens of seconds or never finish.
COUNTS = [
    # a few hundred ms to a few s: the tail above p90
    ("parking", 7), ("involutions", 9), ("initial-words", 7),
    ("unlabelled-parking-graphs", 6), ("set-partitions", 10),
    ("hypoplactic-q-classes", 7), ("nondecreasing-parking", 12),
    ("sylvester-q-classes", 7),
    # 50-150 ms each, ranks 9-14 from the top of a pass of 117 requests:
    # p90 (rank 11.8) falls inside this group, not at its edge
    ("involutions", 8), ("nondecreasing-parking", 11), ("parking", 6),
    ("set-partitions", 9), ("endofunctions", 7), ("initial-words", 6),
    ("permutations", 9),
    # tens of ms
    ("unlabelled-parking-graphs", 5), ("involutions", 7), ("set-partitions", 8),
    ("hypoplactic-q-classes", 6), ("sylvester-q-classes", 6),
    # closed forms: a few ms
    ("endofunctions", 6), ("permutations", 8), ("connected-endofunctions", 6),
    ("free-lie-dims", 6), ("parking-stalactic", 6),
    ("endofunctions-stalactic", 6), ("initial-words-stalactic", 6),
]

TRIANGLES = ["narayana", "lah", "tw", "endt", "pascal", "arr"]
SYM_BASES = ["m", "e", "h", "p", "s"]
PHI_CONVERSIONS = [("phi", "Sp"), ("phi", "Ss"), ("Sp", "phi"), ("Ss", "phi")]

# requests of each kind other than product, coproduct and count in one pass
PER_PASS = {"pair": 4, "convert-phisym": 2, "convert-sym": 2, "insert": 2,
            "triangle": 2}


# ---------------------------------------------------------------------------
# random labels, written in the CLI's text syntax

def _word(w) -> str:
    return "".join(str(a) for a in w) if max(w, default=0) < 10 else ",".join(map(str, w))


def _endo(rng, n):
    return [rng.randint(1, n) for _ in range(n)]


def _perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def _is_parking(w) -> bool:
    return all(a <= i for i, a in enumerate(sorted(w), start=1))


def _park(rng, n):
    while True:
        w = _endo(rng, n)
        if _is_parking(w):
            return w


def _ndpark(rng, n):
    while True:
        w = sorted(_endo(rng, n))
        if _is_parking(w):
            return w


def _comp(rng, n):
    parts, left = [], n
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return parts


def _setpart(rng, n) -> str:
    blocks: list[list[int]] = []
    for i in range(1, n + 1):
        k = rng.randint(0, len(blocks))
        if k == len(blocks):
            blocks.append([i])
        else:
            blocks[k].append(i)
    return "{" + "|".join(",".join(map(str, b)) for b in blocks) + "}"


def label(rng: random.Random, family: str, n: int) -> str:
    if family == "endo":
        return _word(_endo(rng, n))
    if family == "perm":
        return _word(_perm(rng, n))
    if family == "park":
        return _word(_park(rng, n))
    if family == "ndpark":
        return _word(_ndpark(rng, n))
    if family == "setpart":
        return _setpart(rng, n)
    if family == "comp":
        return "(" + ",".join(map(str, _comp(rng, n))) + ")"
    if family == "part":
        return "(" + ",".join(map(str, sorted(_comp(rng, n), reverse=True))) + ")"
    raise ValueError(family)


# ---------------------------------------------------------------------------
# the pool

def _algebra_args(algebra, basis):
    return ["--algebra", algebra] + (["--basis", basis] if basis else [])


def build_pool() -> dict[str, list[list[str]]]:
    """Every request the workload can send, grouped by stratum."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[list[str]]] = {}
    for algebra, basis, family, pmax, cmax in BASES:
        for op, top in (("product", pmax), ("coproduct", cmax)):
            if not top:
                continue
            seen: set[str] = set()
            entries = []
            while len(entries) < POOL_PER_BASIS:
                fmt = "json" if len(entries) % 2 else "text"
                total = rng.randint(4, top)
                if op == "product":
                    i = rng.randint(1, total - 1)
                    labels = [label(rng, family, i), label(rng, family, total - i)]
                else:
                    labels = [label(rng, family, total)]
                argv = [op] + _algebra_args(algebra, basis) + ["--format", fmt] + labels
                text = key(argv)
                if text not in seen:
                    seen.add(text)
                    entries.append(argv)
            pool[f"{op}:{algebra}:{basis}"] = entries

    pairs = []
    for _ in range(POOL_PER_BASIS):
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        x, y = label(rng, "endo", i), label(rng, "endo", j)
        pairs.append(["pair", "--algebra", "eqsym", "--basis", "M", x, y,
                      label(rng, "endo", i + j)])
        a, b = label(rng, "perm", i), label(rng, "perm", j)
        pairs.append(["pair", "--algebra", "sgqsym", a, b, label(rng, "perm", i + j)])
        w = label(rng, "perm", i + j)
        pairs.append(["pair", "--algebra", "sgqsym", w, w if rng.random() < 0.5
                      else label(rng, "perm", i + j)])
    pool["pair"] = pairs

    pool["convert-phisym"] = [
        ["convert", "--algebra", "phisym", "--from", src, "--to", dst,
         "--format", rng.choice(["text", "json"]), label(rng, "perm", rng.randint(4, 5))]
        for src, dst in PHI_CONVERSIONS for _ in range(POOL_PER_BASIS // 4)
    ]
    pool["convert-sym"] = [
        ["convert", "--algebra", "sym-classical", "--from", rng.choice(SYM_BASES),
         "--to", rng.choice(SYM_BASES), "--format", rng.choice(["text", "json"]),
         label(rng, "part", rng.randint(4, 6))]
        for _ in range(POOL_PER_BASIS)
    ]
    inserts = []
    for _ in range(POOL_PER_BASIS):
        n = rng.randint(6, 12)
        word = "".join(rng.choice("abcdef") for _ in range(n))
        fmt = rng.choice(["text", "json"])
        inserts.append(["insert", word, "--format", fmt])
    pool["insert"] = inserts
    pool["triangle"] = [["triangle", "--name", name, str(rows)]
                        for name in TRIANGLES for rows in range(6, 10)]
    pool["count"] = [["count", "--family", fam, str(n)] for fam, n in COUNTS]
    return {stratum: list({key(argv): argv for argv in entries}.values())
            for stratum, entries in pool.items()}


def _quota(stratum: str, size: int) -> int:
    if stratum == "count":
        return size
    if stratum.startswith("product:"):
        return PRODUCTS_PER_BASIS
    if stratum.startswith("coproduct:"):
        return COPRODUCTS_PER_BASIS
    return PER_PASS[stratum]


def pass_requests(pool: dict[str, list[list[str]]], seed: int):
    """The requests of one pass: a fixed quota per stratum, chosen and ordered
    by the seed.  No request repeats within a pass."""
    rng = random.Random(f"query:{seed}")
    chosen = []
    for stratum in sorted(pool):
        entries = pool[stratum]
        chosen += rng.sample(entries, _quota(stratum, len(entries)))
    rng.shuffle(chosen)
    return chosen


def key(argv: list[str]) -> str:
    return shlex.join(argv)
