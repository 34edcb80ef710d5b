"""Text grammar for forest and tensor expressions.

    expr     := term (("+" | "-") term)*
    term     := [rational "*"] monomial
    rational := integer ["/" positive-integer]
    monomial := "1" | forest
    forest   := tree (ws tree)*
    tree     := "b" label | "[" forest "]" label
    label    := "_" integer

The tensor grammar is the same with the forest juxtaposition replaced by
"(x)"-separated tree literals.  "0" is accepted for (and printed as) the zero
combination.  The printer emits one canonical form: terms sorted by grade
then canonical order, coefficients in lowest terms with "-1 * " explicit and
a coefficient of one omitted, terms always joined by " + ".
"""

from __future__ import annotations

from fractions import Fraction

from .hopf import HElem
from .linear import print_terms
from .tensor import EMPTY_WORD, TensorElem, Word
from .trees import EMPTY_FOREST, Forest, Tree


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def tokenize(text: str) -> list:
    """Tokens: (kind, value, line, col).  Kinds: int, leaf, sub, tensor and
    the single characters + - * / [ ]."""
    out = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "b" and i + 1 < n and text[i + 1] == "_":
            j = i + 2
            if j >= n or not text[j].isdigit():
                err("expected digits after 'b_'")
            while j < n and text[j].isdigit():
                j += 1
            out.append(("leaf", int(text[i + 2:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "_":
            j = i + 1
            if j >= n or not text[j].isdigit():
                err("expected digits after '_'")
            while j < n and text[j].isdigit():
                j += 1
            out.append(("sub", int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "(":
            if text[i:i + 3] == "(x)":
                out.append(("tensor", "(x)", line, start_col))
                i += 3
                col += 3
                continue
            err("expected '(x)'")
        if ch in "+-*/[]":
            out.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {ch!r}")
    out.append(("end", None, line, col))
    return out


class _Parser:
    def __init__(self, text: str, d: int):
        self.tokens = tokenize(text)
        self.pos = 0
        self.d = d

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, got {tok[1]!r}", tok)
        return tok

    def at_term_end(self):
        return self.peek()[0] in ("+", "-", "end")

    # -- shared pieces ----------------------------------------------------

    def label(self, tok) -> int:
        """The label a leaf or subscript token carries, checked against d."""
        if not 1 <= tok[1] <= self.d:
            self.error(f"label {tok[1]} out of range 1..{self.d}", tok)
        return tok[1]

    def tree(self) -> Tree:
        tok = self.next()
        if tok[0] == "leaf":
            return Tree(self.label(tok))
        if tok[0] == "[":
            kids = [self.tree()]
            while self.peek()[0] in ("leaf", "["):
                kids.append(self.tree())
            self.expect("]")
            return Tree(self.label(self.expect("sub")), kids)
        self.error("expected a tree", tok)

    def rational_prefix(self) -> Fraction:
        """Consume `rational "*"` if present; otherwise 1."""
        if self.peek()[0] != "int":
            return Fraction(1)
        save = self.pos
        tok = self.next()
        num = tok[1]
        if self.peek()[0] == "/":
            self.next()
            dtok = self.expect("int")
            if dtok[1] <= 0:
                self.error("denominator must be positive", dtok)
            value = Fraction(num, dtok[1])
            self.expect("*")
            return value
        if self.peek()[0] == "*":
            self.next()
            return Fraction(num)
        # bare integer: only the unit ("1") or zero ("0") monomials
        self.pos = save
        return Fraction(1)

    def unit_or_zero(self):
        tok = self.next()
        if tok[0] == "int" and tok[1] == 1 and self.at_term_end():
            return "unit"
        if tok[0] == "int" and tok[1] == 0 and self.at_term_end():
            return "zero"
        self.error("expected a monomial", tok)

    def terms(self, monomial, unit) -> dict:
        """expr := term (("+" | "-") term)* to the end of input, summed per
        monomial; monomial() reads one and unit stands for "1"."""
        out: dict = {}
        sign = 1
        while True:
            coeff = self.rational_prefix()
            mono = monomial()
            if mono != "zero":
                key = unit if mono == "unit" else mono
                out[key] = out.get(key, Fraction(0)) + sign * coeff
            if self.peek()[0] not in ("+", "-"):
                break
            sign = 1 if self.next()[0] == "+" else -1
        self.expect("end")
        return out

    # -- forest expressions ------------------------------------------------

    def forest_monomial(self):
        if self.peek()[0] == "int":
            return self.unit_or_zero()
        trees = [self.tree()]
        while self.peek()[0] in ("leaf", "["):
            trees.append(self.tree())
        return Forest(trees)

    def h_expr(self) -> HElem:
        return HElem(self.terms(self.forest_monomial, EMPTY_FOREST), self.d)

    # -- tensor expressions ------------------------------------------------

    def word_monomial(self, n: int):
        if self.peek()[0] == "int":
            return self.unit_or_zero()
        letters = [self.tree()]
        while self.peek()[0] == "tensor":
            self.next()
            letters.append(self.tree())
        w = Word(letters)
        if w.max_letter_grade() > n:
            self.error(f"letter grade {w.max_letter_grade()} above bound {n}")
        return w

    def tensor_expr(self, n: int) -> TensorElem:
        return TensorElem(self.terms(lambda: self.word_monomial(n), EMPTY_WORD), self.d, n)


def parse_h(text: str, d: int) -> HElem:
    """Parse a forest combination over labels 1..d."""
    return _Parser(text, d).h_expr()


def parse_tensor(text: str, d: int, n: int = 1) -> TensorElem:
    """Parse a tensor combination over labels 1..d with letter grades <= n."""
    return _Parser(text, d).tensor_expr(n)


# -- printing --------------------------------------------------------------


def print_h(x: HElem) -> str:
    return print_terms(x)


def print_tensor(x: TensorElem) -> str:
    return print_terms(x)
