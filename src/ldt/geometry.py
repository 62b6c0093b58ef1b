"""Exact scalars, vectors, hyperplane families and sign patterns.

Every sign decision in this package is made with arbitrary-precision
rational arithmetic.  Floats never touch a comparison: a point that is
exactly on a hyperplane must report ZERO, and no fixed precision can
promise that.
"""

from __future__ import annotations

import operator
import re
from enum import IntEnum
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

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


class Sign(IntEnum):
    """Sign of an exact inner product; ordered MINUS < ZERO < PLUS."""

    MINUS = -1
    ZERO = 0
    PLUS = 1

    @property
    def char(self) -> str:
        return _SIGN_TO_CHAR[self]


_SIGN_TO_CHAR = {Sign.MINUS: "-", Sign.ZERO: "0", Sign.PLUS: "+"}


def sign_of(q: Rational | int) -> Sign:
    if q > 0:
        return Sign.PLUS
    if q < 0:
        return Sign.MINUS
    return Sign.ZERO


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


_SIGNS = (Sign.MINUS, Sign.ZERO, Sign.PLUS)
_SIGN_CHARS = bytes.maketrans(b"\x00\x01\x02", b"-0+")


class SignVector:
    """Sign pattern of a point against an identified hyperplane family.

    Maps hyperplane identifier to the Sign of the corresponding inner
    product, held as two aligned arrays: the identifiers in ascending
    order and their signs as int8 (-1, 0, 1).  Equality is entrywise,
    which makes patterns directly comparable across runs.
    """

    __slots__ = ("_ids", "_signs", "_entries")

    def __init__(self, entries: Mapping[int, Sign]) -> None:
        items = sorted(entries.items())
        self._hold(
            np.array([i for i, _ in items], dtype=np.int64),
            np.array([int(s) for _, s in items], dtype=np.int8),
        )
        object.__setattr__(self, "_entries", dict(items))

    @classmethod
    def from_arrays(cls, ids: Sequence[int], signs: Sequence[int]) -> "SignVector":
        """The pattern giving identifier ids[j] the sign signs[j]."""
        ids = np.array(ids, dtype=np.int64)
        signs = np.array(signs, dtype=np.int8)
        if ids.shape != signs.shape or ids.ndim != 1:
            raise ValueError("one sign per identifier")
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids, signs = ids[order], signs[order]
            if (ids[1:] == ids[:-1]).any():
                raise ValueError("identifier given two signs")
        if signs.size and (signs.min() < -1 or signs.max() > 1):
            raise ValueError("signs are -1, 0 or 1")
        out = cls.__new__(cls)
        out._hold(ids, signs)
        return out

    def _hold(self, ids: np.ndarray, signs: np.ndarray) -> None:
        ids.flags.writeable = False
        signs.flags.writeable = False
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_signs", signs)
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SignVector is immutable")

    def _lookup(self) -> dict[int, Sign]:
        """Identifier to Sign, built on the first lookup by identifier."""
        if self._entries is None:
            signs = [_SIGNS[s] for s in (self._signs + 1).tolist()]
            object.__setattr__(self, "_entries", dict(zip(self._ids.tolist(), signs)))
        return self._entries

    def __getitem__(self, ident: int) -> Sign:
        return self._lookup()[ident]

    def get(self, ident: int, default: Sign | None = None) -> Sign | None:
        return self._lookup().get(ident, default)

    def __contains__(self, ident: int) -> bool:
        return ident in self._lookup()

    def __len__(self) -> int:
        return self._ids.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return np.array_equal(self._ids, other._ids) and np.array_equal(
            self._signs, other._signs
        )

    __hash__ = None  # type: ignore[assignment]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ascending identifiers and their int8 signs, read-only."""
        return self._ids, self._signs

    def prefix(self, length: int) -> np.ndarray:
        """Signs of identifiers 0..length-1 as one int8 array; KeyError
        when one of them is missing."""
        ids = self._ids
        if length and not (
            ids.size >= length and ids[0] == 0 and ids[length - 1] == length - 1
        ):
            raise KeyError(next(i for i in range(length) if i not in self))
        return self._signs[:length]

    def items(self) -> list[tuple[int, Sign]]:
        return list(self._lookup().items())

    def contains_zero(self) -> bool:
        return not self._signs.all()

    def as_string(self) -> str:
        return (self._signs + 1).astype(np.uint8).tobytes().translate(_SIGN_CHARS).decode()

    def __repr__(self) -> str:
        return f"SignVector({self.as_string()!r})"


def ground_truth_pattern(family: Sequence[Vector], x: Vector) -> SignVector:
    """Full sign pattern of x against a family, indexed by position.

    Trusted-side helper: tests and answer verification call this, the
    solver must never be able to reach it (it would leak the hidden
    point).
    """
    return SignVector({i: sign_of(h.dot(x)) for i, h in enumerate(family)})
