"""Registry of memoization caches.

Everything in this package is pure, but several hot paths (PBW normal
forms, Lambda tables, D-element recursions) memoize aggressively.  Tests
that deliberately corrupt structure constants need a way to flush all of
that state at once, so every cache dict registers itself here.  The
registered caches, each with the keys it holds:

- ``uea._NF_CACHE``: PBW normal forms ``{word: int}``, of a word under the
  word, of a letter times a lower-kind prefix under (letter, prefix), and
  the swap rule under the pair (a, b).
- ``elements._D1_CACHE``: degree-one D elements, one tag per route:
  ``("rec", sign, u, j, l)`` for ``d1_rec``, ``("closed", sign, u, j, l)``
  for ``d1_closed`` and ``("triple", sign, u, j, k, m)`` for ``d_triple``.
- ``elements._P_CACHE``: ``p_def`` under (k, j, l).
- ``elements._LAMBDA_CACHE``: ``lambda_rec`` under (j, l, k).
- ``elements._DUV_CACHE``: ``duv_rec`` under (sign, u, v, j, l).
- ``straighten._FACTOR_EXPAND`` and ``_WORD_EXPAND``: the PBW expansion of
  a factor, and of each word prefix met, under the factor or prefix.
- ``straighten._DUV_MFORM``: the D ladders as ordered monomials:
  ``("duv", sign, u, v, j, l)`` for ``duv_mform``, ``("triple", sign, x,
  k, m, weight, total)`` for the ladders of ``move_x_past_lambda`` (no
  Lambda order in the key, so every order shares them) and ``("layer", a,
  v)`` for ``divided_x(a, v)``, keyed by the value a, which both kinds of
  ladder are summed from.
- ``straighten._MERGE_CACHE``: ``merge_lambda_pair`` under the canonical
  (j, l, k, m).
"""

from __future__ import annotations

_REGISTRY: list[dict] = []


def register(cache: dict) -> dict:
    _REGISTRY.append(cache)
    return cache


def clear_all() -> None:
    for cache in _REGISTRY:
        cache.clear()
