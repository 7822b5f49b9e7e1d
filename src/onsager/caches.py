"""Registry of memoization caches.

Everything in this package is pure, but several hot paths (PBW normal
forms, Lambda tables, D-element recursions) memoize aggressively.  Tests
that deliberately corrupt structure constants need a way to flush all of
that state at once, so every cache dict registers itself here.

A family value is kept by :func:`memoized`: under its argument tuple, or
under ``(tag, *args)`` where several functions share one dict (the routes
of ``elements._D1_CACHE``, the ladders and layers of
``straighten._DUV_MFORM``), so no two of them meet under one key.  Values
with orders below the family's start (k <= 0, v <= 0) are kept too.  The
exceptions, hand-written because they are not get-or-build lookups, are
``straighten._WORD_EXPAND`` (each word prefix met, under the prefix) and
``uea._NF_CACHE``'s word and letter-prefix normal forms (see ``uea``).

``WORDS`` is the word table: it keeps one shared tuple per distinct normal
word (hash-consing), so the words of every cached normal form, element and
product that equal each other are one object.  Its values are its own keys,
not computed values, so it is not registered; :func:`clear_all` clears it
with the registered caches.
"""

from __future__ import annotations

_REGISTRY: list[dict] = []
WORDS: dict[tuple, tuple] = {}


def register(cache: dict) -> dict:
    _REGISTRY.append(cache)
    return cache


def clear_all() -> None:
    for cache in _REGISTRY:
        cache.clear()
    WORDS.clear()


def memoized(cache: dict, tag=None):
    """Decorator: keep the function's value in ``cache`` under its
    argument tuple, or under ``(tag, *args)`` when a tag is given, and
    build it on the first call with that key only.  Values must not be
    None and are shared, so callers treat them as read-only."""
    def decorate(fn):
        def wrapper(*args):
            key = args if tag is None else (tag, *args)
            got = cache.get(key)
            if got is None:
                got = cache[key] = fn(*args)
            return got
        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return decorate
