"""Parser for polynomial graph-function expressions.

Grammar (explicit conjugates, no conjugation operator):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | 'i' | 'z'K | 'zb'K | 's' | '(' expr ')'
              | ('+' | '-') factor

`s` is the real variable (the real part of w); `i` is the imaginary
unit; `zK`/`zbK` are the K-th coordinate and its conjugate (1-based).
Errors carry line and column positions.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from .series import MixedSeries

__all__ = ["ParseError", "parse_expression"]


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<zb>zb(?P<zbk>\d+))
  | (?P<z>z(?P<zk>\d+))
  | (?P<s>s)
  | (?P<i>i)
  | (?P<op>[+\-*^()])
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    value: object
    line: int
    col: int


def _tokenize(text):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup if m.lastgroup in ("ws", "num", "s", "i", "op") else None
        if m.group("ws"):
            chunk = m.group("ws")
            nl = chunk.count("\n")
            if nl:
                line += nl
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
            continue
        if m.group("num"):
            toks.append(_Tok("num", float(m.group("num")), line, col))
        elif m.group("zb"):
            toks.append(_Tok("zb", int(m.group("zbk")), line, col))
        elif m.group("z"):
            toks.append(_Tok("z", int(m.group("zk")), line, col))
        elif m.group("s"):
            toks.append(_Tok("s", None, line, col))
        elif m.group("i"):
            toks.append(_Tok("i", None, line, col))
        else:
            toks.append(_Tok(m.group("op"), None, line, col))
        col += m.end() - pos
        pos = m.end()
    toks.append(_Tok("end", None, line, col))
    return toks


class _Parser:
    def __init__(self, toks, n, trunc):
        self.toks = toks
        self.k = 0
        self.n = n
        self.trunc = trunc

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def finite(self, f, tok):
        """f, unless a coefficient overflowed; checked after every operation
        so that the error points at the operator that overflowed."""
        if not all(cmath.isfinite(v) for v in f.coeffs.values()):
            self.fail("number out of range", tok)
        return f

    def expr(self):
        t = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            t = self.finite(t + rhs if op.kind == "+" else t - rhs, op)
        return t

    def term(self):
        f = self.factor()
        while self.peek().kind == "*":
            op = self.take()
            f = self.finite(f * self.factor(), op)
        return f

    def factor(self):
        a = self.atom()
        if self.peek().kind == "^":
            tok = self.take()
            p = self.peek()
            if p.kind != "num" or not math.isfinite(p.value) or p.value != int(p.value):
                self.fail("exponent must be a nonnegative integer")
            self.take()
            return self.finite(a ** int(p.value), tok)
        return a

    def atom(self):
        t = self.take()
        if t.kind == "num":
            if not math.isfinite(t.value):
                self.fail("number out of range", t)
            return MixedSeries.constant(self.n, self.trunc, t.value)
        if t.kind == "i":
            return MixedSeries.constant(self.n, self.trunc, 1j)
        if t.kind == "s":
            return MixedSeries.variable(self.n, self.trunc, "s")
        if t.kind in ("z", "zb"):
            if not 1 <= t.value <= self.n:
                self.fail(f"variable index {t.value} out of range 1..{self.n}", t)
            return MixedSeries.variable(self.n, self.trunc, t.kind, t.value)
        if t.kind == "(":
            inner = self.expr()
            c = self.take()
            if c.kind != ")":
                self.fail("expected ')'", c)
            return inner
        if t.kind in ("+", "-"):
            f = self.factor()
            return f if t.kind == "+" else -f
        self.fail(
            "expected a number, variable, 'i', or '('"
            if t.kind != "end"
            else "unexpected end of input",
            t,
        )


def parse_expression(text, trunc, n=None) -> MixedSeries:
    """Parse a polynomial expression into a truncated series; n is
    inferred from the largest variable index when not given."""
    toks = _tokenize(text)
    if n is None:
        idx = [t.value for t in toks if t.kind in ("z", "zb")]
        if not idx:
            raise ParseError("no coordinate variables in expression", 1, 1)
        n = max(idx)
    p = _Parser(toks, n, trunc)
    out = p.expr()
    if p.peek().kind != "end":
        p.fail("unexpected token")
    return out
