"""Surface syntax for elements.

A small expression language mirroring the notation of the construction:
generators ``xp(j)``, ``xm(l)``, ``h(k)``; named elements ``lam``,
``p``, ``d1``, ``duv``, ``dt``; divided powers ``dp(e, n)`` and
binomials ``binom(e, n)`` of degree-one elements; ``+ - *`` with the
usual precedence, unary minus, parentheses, and ``[a, b]`` for brackets
of degree-one subexpressions.  Expressions evaluate to exact elements
of the enveloping algebra, a ``*`` chain by the product given: the free
:func:`free_product` by default, or the normal form by :func:`joined_product`.
``str()`` of a Lie element, a PBW element or an ordered-monomial form
(``LinComb.__repr__``) is text in this language.

The syntax tree is n-ary: a chain of ``+``/``-`` is one :class:`Sum` and a
chain of ``*`` one :class:`Product`, so evaluation nests only as deep as
the input's parentheses, brackets, call arguments and unary minus chains.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import groupby
from typing import NamedTuple

from .lie import LieElement, bracket, h, xminus, xplus
from .uea import (UEAElement, UEA_ONE, binomial, divided_power, from_lie, multiply,
                  pbw_normal_form, to_lie)
from .elements import d1_closed, d_triple, duv_rec, lambda_rec, p_def


class ExprError(Exception):
    """Base class for surface-syntax problems."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DomainError(ExprError):
    """Structurally valid input with illegal indices or shapes."""


# ---------------------------------------------------------------------------
# AST

class Lit(NamedTuple):
    value: int | Fraction


class Call(NamedTuple):
    name: str
    args: tuple  # ints, sign strings, or sub-expressions for dp/binom


class Sum(NamedTuple):
    terms: tuple  # (sign, node) pairs, sign +1 or -1; unary minus is one term


class Product(NamedTuple):
    factors: tuple


class Bracket(NamedTuple):
    left: object
    right: object


# Argument kinds of each function: "i" integer, "s" sign, "e" sub-expression.
_SIGNATURES = {
    "xp": "i", "xm": "i", "h": "i", "lam": "iii", "p": "iii",
    "d1": "siii", "duv": "siiii", "dt": "siiii", "dp": "ei", "binom": "ei",
}


# ---------------------------------------------------------------------------
# Tokenizer

class _Token(NamedTuple):
    kind: str  # "int" "name" "op" "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in "0123456789":
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "+-*/()[],":
            tokens.append(_Token("op", c, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser.  Grammar:
#   expr    := term (("+" | "-") term)*          -> Sum, unless one "+" term
#   term    := factor ("*" factor)*              -> Product, unless one factor
#   factor  := "-" factor | atom                 -> "-" gives a one-term Sum
#   atom    := rational | call | "(" expr ")" | "[" expr "," expr "]"
#   call    := name "(" arg ("," arg)* ")"       -> args per _SIGNATURES
#   rational:= int ("/" int)?

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.take()
        if t.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                                  t.line, t.column)
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.column)
        return e

    def expr(self):
        terms = [(1, self.term())]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.take().text == "+" else -1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek().text == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self):
        if self.peek().text == "-":
            self.take()
            return Sum(((-1, self.factor()),))
        return self.atom()

    def atom(self):
        t = self.take()
        if t.kind == "int":
            value = int(t.text)
            if self.peek().text == "/":
                self.take()
                d = self.take()
                if d.kind != "int":
                    raise ExprSyntaxError("expected denominator", d.line, d.column)
                if int(d.text) == 0:
                    raise ExprSyntaxError("zero denominator", d.line, d.column)
                q = Fraction(value, int(d.text))
                value = q.numerator if q.denominator == 1 else q
            return Lit(value)
        if t.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.text == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return Bracket(a, b)
        if t.kind == "name":
            return self.call(t)
        raise ExprSyntaxError(f"unexpected {t.text or 'end of input'!r}", t.line, t.column)

    def integer(self) -> int:
        neg = False
        t = self.take()
        if t.text == "-":
            neg = True
            t = self.take()
        if t.kind != "int":
            raise ExprSyntaxError(f"expected integer, found {t.text!r}", t.line, t.column)
        return -int(t.text) if neg else int(t.text)

    def sign(self) -> str:
        s = self.take()
        if s.text not in ("+", "-"):
            raise ExprSyntaxError(f"expected sign '+' or '-', found {s.text!r}",
                                  s.line, s.column)
        return s.text

    def call(self, t: _Token):
        signature = _SIGNATURES.get(t.text)
        if signature is None:
            raise ExprSyntaxError(f"unknown function {t.text!r}", t.line, t.column)
        read = {"i": self.integer, "s": self.sign, "e": self.expr}
        self.expect("(")
        args = []
        for n, kind in enumerate(signature):
            if n:
                self.expect(",")
            args.append(read[kind]())
        self.expect(")")
        return Call(t.text, tuple(args))


def parse(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

def as_lie(u: UEAElement) -> LieElement:
    """The Lie element of a degree-one value; DomainError on anything else.

    A value with a word of any other length is read in PBW normal form,
    so a product that reduces to degree one, such as ``[x+_1, x-_1]``
    written ``xp(1)*xm(1)-xm(1)*xp(1)``, is accepted.
    """
    a = to_lie(u)
    if a is None:
        a = to_lie(pbw_normal_form(u))
        if a is None:
            raise DomainError("expected a degree-one element")
    return a


def _sign(s: str) -> int:
    return 1 if s == "+" else -1


def free_product(factors) -> UEAElement:
    return reduce(UEAElement.convolve, factors)


def joined_product(factors) -> UEAElement:
    """The normal form of a product of normal factors: a run of one-word factors
    is one free word, normalized once; longer factors join by :func:`multiply`, left to right."""
    pieces = []
    for multi, run in groupby(factors, key=lambda f: len(f.num) > 1):
        pieces += run if multi else [pbw_normal_form(free_product(run))]
    return reduce(multiply, pieces)


def evaluate(e, product=free_product) -> UEAElement:
    """The value of ``e``, each ``*`` chain's factor values joined by ``product``."""
    if isinstance(e, Call):
        return _evaluate_call(e, product)
    if isinstance(e, Sum):
        return UEAElement.combine((sign, evaluate(term, product)) for sign, term in e.terms)
    if isinstance(e, Product):
        # free by default, for perfbench's oracle to normalize by its own route
        return product([evaluate(f, product) for f in e.factors])
    if isinstance(e, Lit):
        return UEA_ONE.scale(e.value)
    if isinstance(e, Bracket):
        return from_lie(bracket(*(as_lie(evaluate(x, product)) for x in (e.left, e.right))))
    raise TypeError(f"not an expression node: {e!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _evaluate_call(e: Call, product) -> UEAElement:
    name, args = e.name, e.args
    if name == "xp":
        return from_lie(xplus(args[0]))
    if name == "xm":
        return from_lie(xminus(args[0]))
    if name == "h":
        return from_lie(h(args[0]))
    if name == "lam":
        j, l, k = args
        _require(j != 0 and l != 0, f"lam indices must be nonzero: lam({j},{l},{k})")
        return lambda_rec(abs(j), abs(l), k)
    if name == "p":
        u, j, l = args
        _require(u >= 1, f"p order must be >= 1: p({u},{j},{l})")
        _require(j != 0 and l != 0, f"p indices must be nonzero: p({u},{j},{l})")
        return from_lie(p_def(u, abs(j), abs(l)))
    if name == "d1":
        s, u, j, l = args
        _require(u >= 0, f"d1 order must be >= 0: d1({s},{u},{j},{l})")
        _require(j != 0 and l != 0, "d1 indices must be nonzero")
        return from_lie(d1_closed(_sign(s), u, abs(j), abs(l)))
    if name == "duv":
        s, u, v, j, l = args
        _require(u >= 0 and v >= 0, "duv orders must be >= 0")
        _require(j != 0 and l != 0, "duv indices must be nonzero")
        return duv_rec(_sign(s), u, v, abs(j), abs(l))
    if name == "dt":
        s, u, j, k, m = args
        _require(u >= 0, "dt order must be >= 0")
        _require(j != 0 and k != 0 and m != 0, "dt indices must be nonzero")
        return from_lie(d_triple(_sign(s), u, abs(j), abs(k), abs(m)))
    if name == "dp":
        inner, n = args
        _require(n >= 0, f"divided-power order must be >= 0: {n}")
        return divided_power(as_lie(evaluate(inner, product)), n)
    if name == "binom":
        inner, n = args
        _require(n >= 0, f"binomial order must be >= 0: {n}")
        return binomial(as_lie(evaluate(inner, product)), n)
    raise DomainError(f"unknown function {name!r}")
