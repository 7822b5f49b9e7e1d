"""Surface syntax for elements.

A small expression language mirroring the notation of the construction:
generators ``xp(j)``, ``xm(l)``, ``h(k)``; named elements ``lam``,
``p``, ``d1``, ``duv``, ``dt``; divided powers ``dp(e, n)`` and
binomials ``binom(e, n)`` of degree-one elements; ``+ - *`` with the
usual precedence, unary minus, parentheses, and ``[a, b]`` for brackets
of degree-one subexpressions.  Expressions evaluate to exact elements
of the enveloping algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lie import KIND_NAMES, LieElement, bracket, h, xminus, xplus
from .uea import UEAElement, UEA_ONE, binomial, divided_power, from_lie, multiply
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

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple  # ints, sign strings, or sub-expressions for dp/binom


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object


# calls taking only integer arguments, with arity
_SIMPLE_CALLS = {"xp": 1, "xm": 1, "h": 1, "lam": 3, "p": 3}
# calls whose first argument is a sign
_SIGNED_CALLS = {"d1": 3, "duv": 4, "dt": 4}
# calls whose first argument is a sub-expression
_EXPR_CALLS = {"dp": 1, "binom": 1}


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
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
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
#   expr    := term (("+" | "-") term)*
#   term    := factor ("*" factor)*
#   factor  := "-" factor | atom
#   atom    := rational | call | "(" expr ")" | "[" expr "," expr "]"
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
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek().text == "*":
            self.take()
            e = Mul(e, self.factor())
        return e

    def factor(self):
        if self.peek().text == "-":
            self.take()
            return Neg(self.factor())
        return self.atom()

    def atom(self):
        t = self.take()
        if t.kind == "int":
            value = Fraction(int(t.text))
            if self.peek().text == "/":
                self.take()
                d = self.take()
                if d.kind != "int":
                    raise ExprSyntaxError("expected denominator", d.line, d.column)
                value /= int(d.text)
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

    def call(self, t: _Token):
        name = t.text
        if name in _SIMPLE_CALLS:
            self.expect("(")
            args = [self.integer()]
            for _ in range(_SIMPLE_CALLS[name] - 1):
                self.expect(",")
                args.append(self.integer())
            self.expect(")")
            return Call(name, tuple(args))
        if name in _SIGNED_CALLS:
            self.expect("(")
            s = self.take()
            if s.text not in ("+", "-"):
                raise ExprSyntaxError(f"expected sign '+' or '-', found {s.text!r}",
                                      s.line, s.column)
            args: list = [s.text]
            for _ in range(_SIGNED_CALLS[name]):
                self.expect(",")
                args.append(self.integer())
            self.expect(")")
            return Call(name, tuple(args))
        if name in _EXPR_CALLS:
            self.expect("(")
            inner = self.expr()
            self.expect(",")
            n = self.integer()
            self.expect(")")
            return Call(name, (inner, n))
        raise ExprSyntaxError(f"unknown function {name!r}", t.line, t.column)


def parse(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer.  print(parse(print(e))) == print(e).

def to_text(e) -> str:
    return _print(e, 0)


def _print(e, prec: int) -> str:
    # prec levels: 0 sum, 1 product, 2 unary/atom
    if isinstance(e, Lit):
        s = str(e.value)
        return f"({s})" if e.value < 0 and prec >= 1 else s
    if isinstance(e, Call):
        parts = []
        for a in e.args:
            parts.append(_print(a, 0) if isinstance(a, (Lit, Call, Neg, Add, Sub, Mul, Bracket))
                         else str(a))
        return f"{e.name}({', '.join(parts)})"
    if isinstance(e, Neg):
        s = f"-{_print(e.arg, 2)}"
        return f"({s})" if prec >= 1 else s
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        s = _print(e.left, 0) + op + _print(e.right, 1)
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Mul):
        s = _print(e.left, 1) + "*" + _print(e.right, 2)
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Bracket):
        return f"[{_print(e.left, 0)}, {_print(e.right, 0)}]"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

def as_lie(u: UEAElement) -> LieElement:
    """Degree-one part extraction; DomainError on anything else."""
    coeffs = {}
    for w, c in u.coeffs.items():
        if len(w) != 1:
            raise DomainError("expected a degree-one element")
        coeffs[w[0]] = coeffs.get(w[0], Fraction(0)) + c
    return LieElement(coeffs)


def _sign(s: str) -> int:
    return 1 if s == "+" else -1


def evaluate(e) -> UEAElement:
    if isinstance(e, Lit):
        return UEA_ONE.scale(e.value)
    if isinstance(e, Neg):
        return evaluate(e.arg).scale(Fraction(-1))
    if isinstance(e, Add):
        return evaluate(e.left) + evaluate(e.right)
    if isinstance(e, Sub):
        return evaluate(e.left) - evaluate(e.right)
    if isinstance(e, Mul):
        return multiply(evaluate(e.left), evaluate(e.right))
    if isinstance(e, Bracket):
        return from_lie(bracket(as_lie(evaluate(e.left)), as_lie(evaluate(e.right))))
    if isinstance(e, Call):
        return _evaluate_call(e)
    raise TypeError(f"not an expression node: {e!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _evaluate_call(e: Call) -> UEAElement:
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
        return divided_power(as_lie(evaluate(inner)), n)
    if name == "binom":
        inner, n = args
        _require(n >= 0, f"binomial order must be >= 0: {n}")
        return binomial(as_lie(evaluate(inner)), n)
    raise DomainError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# Element rendering back into the surface syntax

def element_to_text(u: UEAElement) -> str:
    """Render a PBW element in parseable surface syntax."""
    if u.is_zero:
        return "0"
    parts = []
    for w in u.words():
        c = u.coeffs[w]
        factors = "*".join(f"{KIND_NAMES[b.kind]}({b.index})" for b in w)
        if not w:
            body = str(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{abs(c)}*{factors}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
