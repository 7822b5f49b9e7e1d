"""Seeded request stream for the ``query-stream`` workload, and its oracle.

The stream mixes light requests (brackets of generators, short products,
loop realizations), whose parameters the seed draws, with a fixed heavy
set (divided power x Lambda x divided power, and D_{u,v} x x^-_l x Lambda
at indices and orders <= 3).  The heavy set is sent HEAVY_REPEATS times
over, always in the same order, so its first pass fills the caches the
same way on every seed and the tail latency does not hang on which heavy
item happened to come first; the seed draws the light requests and where
in the stream the heavy ones fall.

The oracle routes are independent of the ones the server uses:
``normalize`` is checked against the rightmost-descent PBW normal form,
``bracket`` and ``realize`` against the commutator in the 2x2 loop
realization.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

GENERATORS = tuple([f"xp({j})" for j in (1, 2, 3)] + [f"xm({l})" for l in (1, 2, 3)]
                   + [f"h({k})" for k in (0, 1, 2, 3)])

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3))

HEAVY = tuple(
    f"dp(xp({j}),3)*lam({j},{l},{k})*dp(xm({l}),2)" for k in (2, 3) for j, l in PAIRS
) + tuple(
    f"duv(+,3,2,{j},{l})*xm({l})*lam({j},{l},2)" for j, l in PAIRS
)
HEAVY_REPEATS = 4

# light requests per second of --seconds; the stream length is fixed by the
# arguments alone, never by how fast the program answers
LIGHT_PER_SECOND = 60


def _normalize(expr: str) -> list[str]:
    return ["normalize", expr, "--format", "json"]


def _light(rng: random.Random) -> list[str]:
    kind = rng.random()
    if kind < 0.35:
        a, b = rng.choice(GENERATORS), rng.choice(GENERATORS)
        if rng.random() < 0.3:
            a = f"{a}-{rng.randint(2, 3)}*{rng.choice(GENERATORS)}"
        return ["bracket", a, b, "--format", "json"]
    if kind < 0.6:
        word = "*".join(rng.choice(GENERATORS) for _ in range(rng.randint(2, 4)))
        return _normalize(word)
    if kind < 0.75:
        j, l = rng.randint(1, 3), rng.randint(1, 3)
        return _normalize(f"dp(xp({j}),{rng.randint(1, 3)})*dp(xm({l}),{rng.randint(1, 3)})")
    if rng.random() < 0.7:
        return ["realize", f"[{rng.choice(GENERATORS)},{rng.choice(GENERATORS)}]"]
    return ["realize", rng.choice(GENERATORS)]


def stream(seed: int, seconds: int) -> list[list[str]]:
    """The request argv lists for one run; the same arguments give the same list."""
    rng = random.Random(seed)
    light = [_light(rng) for _ in range(LIGHT_PER_SECOND * seconds)]
    heavy = [_normalize(e) for _ in range(HEAVY_REPEATS) for e in HEAVY]
    slots = set(rng.sample(range(len(light) + len(heavy)), len(heavy)))
    light_it, heavy_it = iter(light), iter(heavy)
    return [next(heavy_it) if i in slots else next(light_it)
            for i in range(len(light) + len(heavy))]


# ---------------------------------------------------------------------------
# Oracle (runs in the benchmark process, off the clock)

def _value(expr: str):
    from onsager.expr import evaluate, parse

    return evaluate(parse(expr))


def _words_from_json(payload: dict) -> dict:
    from onsager.lie import BasisElement, Kind

    kinds = {"xm": Kind.XMINUS, "h": Kind.H, "xp": Kind.XPLUS}
    return {tuple(BasisElement(kinds[f["kind"]], f["index"]) for f in w["factors"]):
            Fraction(w["coeff"]) for w in payload["words"]}


def _matrix_text(m) -> str:
    lines = []
    for row in ((m.a11, m.a12), (m.a21, m.a22)):
        lines.append("[ " + "   ".join(repr(p) if not p.is_zero else "0" for p in row) + " ]")
    return "\n".join(lines) + "\n"


def _bracket_matrix(left: str, right: str):
    from onsager import loop
    from onsager.expr import as_lie

    return loop.matrix_bracket(loop.embed(as_lie(_value(left))),
                               loop.embed(as_lie(_value(right))))


def check(argv: list[str], rc: int, out: str) -> bool:
    """True when the reply to ``argv`` agrees with the independent route."""
    from onsager import loop
    from onsager.lie import LieElement
    from onsager.uea import pbw_normal_form

    if rc != 0:
        return False
    command = argv[0]
    if command == "normalize":
        expected = pbw_normal_form(_value(argv[1]), strategy="rightmost")
        return _words_from_json(json.loads(out)) == expected.coeffs
    if command == "bracket":
        words = _words_from_json(json.loads(out))
        if any(len(w) != 1 for w in words):
            return False
        got = loop.embed(LieElement({w[0]: c for w, c in words.items()}))
        return got == _bracket_matrix(argv[1], argv[2])
    if command == "realize":
        expr = argv[1]
        if expr.startswith("["):
            left, right = expr[1:-1].split(",")
            return out == _matrix_text(_bracket_matrix(left, right))
        from onsager.expr import as_lie

        return out == _matrix_text(loop.embed(as_lie(_value(expr))))
    return False
