"""Signed compositions and their index combinatorics.

A *signed index* is a finite composition of nonzero integers, held as a
SignedIndex: a tuple whose parts are checked when it is made.  A negative
part encodes an alternating ("bar") argument, so the index (2, -1) stands
for the nested sum whose inner summand carries a factor (-1)^k / k.

The module supplies the merge operator ``oplus`` (magnitudes add, signs
multiply), the comma-or-merge expansion ``pi_expand`` that underlies every
right-hand side in this package, the star-to-strict expansion, and the
text round-trip used by the CLI and reports.

It also holds the package's one rule per kind of bad argument, each
naming the argument and the value it was given: ``as_int`` refuses a value
that is not an integer, one below a floor ``least`` and one above a cap
``most``; ``as_ints`` does the same for a tuple of integers, its floor
applying to every entry; and ``as_choice`` refuses a value outside a fixed
tuple of choices.  Every floor, cap and named choice of a public entry (and
every integer CLI flag) goes through them, and so does every relation
between arguments, written as a floor or cap read from an argument already
checked: 1 <= k < n is k's floor 1 and cap n - 1 once n is read.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "SignedIndex",
    "FormalSum",
    "oplus",
    "pi_expand",
    "pi_expand_weighted",
    "star_expand",
    "parse_index",
    "format_index",
    "as_index",
    "as_int",
    "as_ints",
    "as_choice",
    "EMPTY",
]


def as_int(name: str, value, least: Optional[int] = None,
           most: Optional[int] = None) -> int:
    """value as an int; 1.7 or "3" is refused, not cut, and True is 1.

    With least given, a value below it is refused as well, with
    "<name> must be >= <least>, got <value>"; with most given, a value
    above it, with "<name> must be <= <most>, got <value>".
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r"
                         % (name, value)) from None
    if least is not None and value < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, value))
    if most is not None and value > most:
        raise ValueError("%s must be <= %d, got %d" % (name, most, value))
    return value


def as_ints(name: str, values, least: Optional[int] = None) -> Tuple[int, ...]:
    """values as a tuple of ints, each coerced as by as_int.

    With least given, a tuple holding an entry below it is refused, with
    "<name> must hold integers >= <least>, got <the tuple>".
    """
    try:
        values = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError("%s must hold integers, got %r"
                         % (name, values)) from None
    if least is not None and min(values, default=least) < least:
        raise ValueError("%s must hold integers >= %d, got %r"
                         % (name, least, values))
    return values


def as_choice(name: str, value, choices: tuple):
    """value if it is one of choices, else refused with
    "<name> must be one of <choices>, got <value>"."""
    if value not in choices:
        raise ValueError("%s must be one of %r, got %r"
                         % (name, choices, value))
    return value


class SignedIndex(tuple):
    """Immutable composition of nonzero integers: a tuple checked on entry.

    An index equals, and hashes like, the tuple of its parts, so both are
    one dict or memo key.  A slice is a plain tuple; tail() still returns a
    SignedIndex.  ``parts`` is the index itself.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = as_ints("index", parts)
        if 0 in parts:
            raise ValueError("index parts must be nonzero integers, got %r"
                             % (parts,))
        return super().__new__(cls, parts)

    @property
    def parts(self) -> "SignedIndex":
        return self

    def depth(self) -> int:
        return len(self)

    def weight(self) -> int:
        return sum(map(abs, self))

    def is_empty(self) -> bool:
        return not self

    def head(self) -> int:
        if not self:
            raise IndexError("empty index has no head")
        return self[0]

    def tail(self) -> "SignedIndex":
        return SignedIndex(self[1:])

    def __repr__(self) -> str:
        return "SignedIndex(%r)" % (tuple(self),)

    def __str__(self) -> str:
        return format_index(self)


EMPTY = SignedIndex(())


def as_index(value) -> SignedIndex:
    """Coerce a SignedIndex, an int, or an iterable of ints to a SignedIndex."""
    if isinstance(value, SignedIndex):
        return value
    if isinstance(value, int):
        return SignedIndex((value,))
    return SignedIndex(value)


class FormalSum:
    """Finite integer-linear combination of signed indices.

    Stored as a mapping index -> coefficient with zero coefficients pruned.
    Insertion order is preserved, which keeps report output deterministic;
    equality ignores order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for idx, coeff in items:
                self.add_term(as_index(idx), coeff)

    def add_term(self, idx: SignedIndex, coeff: int) -> None:
        if coeff == 0:
            return
        idx = as_index(idx)
        new = self.terms.get(idx, 0) + coeff
        if new == 0:
            self.terms.pop(idx, None)
        else:
            self.terms[idx] = new

    def __iter__(self) -> Iterator[Tuple[SignedIndex, int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("FormalSum is mutable, not hashable")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.terms)
        for idx, coeff in other:
            out.add_term(idx, coeff)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.terms)
        for idx, coeff in other:
            out.add_term(idx, -coeff)
        return out

    def __mul__(self, scalar: int) -> "FormalSum":
        if scalar == 0:
            return FormalSum()
        return FormalSum((idx, coeff * scalar) for idx, coeff in self)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "FormalSum(%r)" % (self.terms,)

    def __str__(self) -> str:
        return self.format()

    def format(self, wrap: str = "") -> str:
        """Render as "4*(3,3) + 2*(6)"; wrap="zeta" gives "4*zeta(3,3) + ...".

        Terms appear in insertion order; the empty sum renders as "0" and
        the empty index as "()".
        """
        if not self.terms:
            return "0"
        pieces = []
        for idx, coeff in self.terms.items():
            body = "%s(%s)" % (wrap, format_index(idx))
            pieces.append("%d*%s" % (coeff, body))
        return " + ".join(pieces)


def oplus(a: int, b: int) -> int:
    """Sign-aware merge of two nonzero parts: magnitudes add, signs multiply."""
    if a == 0 or b == 0:
        raise ValueError("oplus requires nonzero arguments")
    return (b if a > 0 else -b) + (a if b > 0 else -a)


def pi_expand(base: SignedIndex) -> List[SignedIndex]:
    """All 2^(m-1) comma-or-merge images of a nonempty base, in mask order.

    Bit i of the mask governs the slot between parts i and i+1; a clear bit
    keeps the comma, a set bit merges the neighbours with oplus.  Equal
    indices arising from distinct masks (none are known for the family
    bases used here) are kept, so the result is a multiset.
    """
    base = as_index(base)
    if base.is_empty():
        raise ValueError("pi_expand needs a nonempty base")
    parts = base.parts
    slots = len(parts) - 1
    out = []
    for mask in range(1 << slots):
        acc = [parts[0]]
        for i in range(slots):
            if mask >> i & 1:
                acc[-1] = oplus(acc[-1], parts[i + 1])
            else:
                acc.append(parts[i + 1])
        out.append(SignedIndex(acc))
    return out


def pi_expand_weighted(base: SignedIndex, coeff_base: int = 2,
                       global_sign: int = 1) -> FormalSum:
    """Comma-or-merge expansion with coefficient global_sign*coeff_base^depth.

    Coefficients of colliding indices accumulate.
    """
    coeff_base = as_int("coeff_base", coeff_base, 1)
    global_sign = as_choice("global_sign", as_int("global_sign", global_sign),
                            (1, -1))
    out = FormalSum()
    for idx in pi_expand(base):
        out.add_term(idx, global_sign * coeff_base ** idx.depth())
    return out


def star_expand(s: SignedIndex) -> FormalSum:
    """Expand a star (weak-inequality) sum into strict ones.

    Merging a run of equal summation variables multiplies the signs and adds
    the exponents of the merged parts, which is exactly oplus, so the
    expansion runs over the same comma-or-merge images as pi_expand, every
    coefficient +1.  For every n, H*_n(s) equals the sum of H_n(p) over the
    expansion; that equality is an exact test hook, not an assumption here.
    """
    s = as_index(s)
    if s.is_empty():
        raise ValueError("star_expand needs a nonempty index")
    return pi_expand_weighted(s, coeff_base=1, global_sign=1)


def parse_index(text: str) -> SignedIndex:
    """Parse "s1,s2,...,sk" (optional whitespace) into a SignedIndex.

    Zero entries, empty tokens and non-integer tokens raise ValueError
    naming the offending token.  The empty index has no text form; an
    empty or blank string is rejected.
    """
    if text is None or not text.strip():
        raise ValueError("empty index text")
    parts = []
    for token in text.split(","):
        tok = token.strip()
        if not tok:
            raise ValueError("empty token in index text: %r" % (token,))
        try:
            val = int(tok)
        except ValueError:
            raise ValueError("non-integer token in index text: %r" % (tok,)) from None
        if val == 0:
            raise ValueError("zero entry in index text: %r" % (tok,))
        parts.append(val)
    return SignedIndex(parts)


def format_index(idx: SignedIndex) -> str:
    """Inverse of parse_index; the empty index renders as ""."""
    return ",".join(str(p) for p in as_index(idx))
