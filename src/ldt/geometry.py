"""Exact scalars, vectors, hyperplane families and sign patterns.

Every sign decision in this package is made with arbitrary-precision
rational arithmetic.  Floats never touch a comparison: a point that is
exactly on a hyperplane must report 0, and no fixed precision can
promise that.

A sign is the int -1, 0 or 1.  A sign pattern is one read-only int8
array of signs, indexed by family row.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .intlin import GEMM_GUARD, generator_matrix, hash_weights, repeated

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+|\.\d+)?$")


def parse_rational(text: str) -> Rational:
    """Parse 'a', 'a/b' or 'a.b' into a Rational, exactly.

    The canonical form produced by format_rational round-trips exactly.
    """
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(token)


def format_rational(q: Rational) -> str:
    """Canonical text for a rational: lowest terms, '/' only when needed."""
    return str(Fraction(q))


def sign_of(q: Rational | int) -> int:
    """-1, 0 or 1 as q is negative, zero or positive."""
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


class Vector:
    """Immutable rational vector.

    coords holds each coordinate exactly: an int where it is integral,
    a Fraction otherwise.  Python mixes the two exactly, so every
    operation has one path.
    """

    __slots__ = ("coords",)

    coords: tuple[Rational | int, ...]

    def __init__(self, coords: Iterable[Rational | int]) -> None:
        cs = coords if type(coords) is tuple else tuple(coords)
        if not all(type(c) is int for c in cs):
            fr = (c if isinstance(c, Fraction) else Fraction(c) for c in cs)
            cs = tuple(c.numerator if c.denominator == 1 else c for c in fr)
        object.__setattr__(self, "coords", cs)

    @classmethod
    def _of_ints(cls, ints: tuple[int, ...]) -> "Vector":
        """The Vector of a tuple of Python ints, taken as it is."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", ints)
        return v

    @property
    def ints(self) -> tuple[int, ...] | None:
        """The coordinates when every one is an integer, else None."""
        cs = self.coords
        return cs if all(type(c) is int for c in cs) else None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([0] * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def dot(self, other: "Vector") -> Rational:
        if len(self) != len(other):
            raise ValueError(
                f"dimension mismatch: {len(self)} vs {len(other)}"
            )
        total = 0
        for u, v in zip(self.coords, other.coords):
            if u and v:
                total += u * v
        return Fraction(total)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(tuple(u + v for u, v in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(tuple(u - v for u, v in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-u for u in self.coords))

    def scaled(self, q: Rational | int) -> "Vector":
        return Vector(tuple(u * q for u in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self) -> Iterator[Rational | int]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return " ".join(format_rational(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"Vector({str(self)!r})"


class Family(Sequence[Vector]):
    """An immutable hyperplane family held as one integer row matrix.

    rows is a (len, dim) array: int64 while every entry is below
    GEMM_GUARD, Python integers (object dtype) past it.  A rational
    family is scaled by one common positive denominator den, which
    changes no label and no comparison, so rows is integral for every
    family.  family[i] is the Vector rows[i] / den, built when asked.

    top is the largest absolute entry of rows.  The duplicate map and
    the distinct nonzero rows (first_copies) are computed on first use
    and kept, so a family shared by many solves pays for them once.
    """

    __slots__ = ("rows", "den", "top", "_copies")

    rows: np.ndarray
    den: int
    top: int

    def __init__(self, rows: np.ndarray, den: int = 1) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("family rows must form a matrix")
        if rows.dtype == object:
            top = max((abs(operator.index(a)) for a in rows.flat), default=0)
        elif rows.dtype.kind in "iu":
            top = max(abs(int(rows.max(initial=0))), abs(int(rows.min(initial=0))))
        else:
            raise TypeError(f"family rows must be integers, not {rows.dtype}")
        rows = rows.astype(np.int64 if top < GEMM_GUARD else object)
        rows.flags.writeable = False
        if type(den) is not int or den < 1:
            raise ValueError("the common denominator must be a positive integer")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_copies", None)

    @classmethod
    def of(cls, vectors: Iterable[Vector]) -> "Family":
        """The family of the given Vectors, converted once; a Family is
        returned as it is."""
        if isinstance(vectors, Family):
            return vectors
        vecs = tuple(vectors)
        dim = vecs[0].dim if vecs else 0
        if any(v.dim != dim for v in vecs):
            raise ValueError("family members must share one dimension")
        ints = [v.ints for v in vecs]
        den = 1
        if any(r is None for r in ints):
            den = lcm(*(c.denominator for v in vecs for c in v.coords))
            ints = [
                tuple(c.numerator * (den // c.denominator) for c in v.coords)
                for v in vecs
            ]
        return cls(generator_matrix(ints, dim), den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Family is immutable")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index: int) -> Vector:
        return self._member(self.rows[operator.index(index)].tolist())

    def first_copies(self) -> tuple[np.ndarray, np.ndarray]:
        """(alias, distinct), computed on the first call and kept.

        alias[i] is the first index whose row equals row i; distinct
        holds, ascending, the indices that are their own first copy and
        whose row is not zero.  Both arrays are read-only.

        int64 rows are hashed to one 64-bit key each (a wrapping product
        with fixed odd weights); only rows whose key is shared are
        compared exactly, so distinct rows never merge and a family
        without repeats costs one sort of its keys.
        """
        if self._copies is None:
            rows = self.rows
            m, n = rows.shape
            alias = np.arange(m)
            if rows.dtype == object:
                suspects = alias
            else:
                suspects = repeated(rows.astype(np.uint64) @ hash_weights(n))
            canon: dict[tuple[int, ...], int] = {}
            for i, row in zip(suspects.tolist(), rows[suspects].tolist()):
                alias[i] = canon.setdefault(tuple(row), i)
            distinct = np.flatnonzero((alias == np.arange(m)) & (rows != 0).any(axis=1))
            alias.flags.writeable = False
            distinct.flags.writeable = False
            object.__setattr__(self, "_copies", (alias, distinct))
        return self._copies

    def _member(self, row: list[int]) -> Vector:
        if self.den > 1:
            return Vector(Fraction(a, self.den) for a in row)
        if self.rows.dtype == object:
            return Vector(tuple(row))
        # an int64 row converts to Python ints, so no coordinate needs a check
        return Vector._of_ints(tuple(row))

    def __repr__(self) -> str:
        return f"Family({len(self)} rows, dim {self.dim}, den {self.den})"


def ground_truth_pattern(family: Sequence[Vector], x: Vector) -> np.ndarray:
    """Full sign pattern of x against a family, indexed by position.

    Trusted-side helper: tests and answer verification call this, the
    solver must never be able to reach it (it would leak the hidden
    point).  Each sign is an exact Vector.dot, independent of the
    solver's matrix products.
    """
    pattern = np.fromiter(
        (sign_of(h.dot(x)) for h in family), dtype=np.int8, count=len(family)
    )
    pattern.flags.writeable = False
    return pattern
