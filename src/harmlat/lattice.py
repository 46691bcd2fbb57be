"""Exact lattice functions on l1 balls of Z^d and the probabilistic Laplacian.

The Laplacian is normalized as the one-step random-walk generator,

    (L u)(x) = (1/2d) * sum_{s in S} u(x + s) - u(x),

with S the 2d unit steps; this is the normalization under which the
n-step walk distribution satisfies p(n+1, x) - p(n, x) = (L p)(n, x).

A :class:`LatticeFunction` is a dense table of exact rationals over a
ball, held in the integer form of :mod:`harmlat.rationals`: integer
numerators over one common denominator, in lowest terms.  All
operations are pure; values are immutable after construction.

The Laplacian and the directional differences read one column plan,
:func:`harmlat.balls.laplacian_plan`, in a few C-level passes over whole
columns.  :func:`sos_laplacian_power` is the reference for L^k(u^2)(0):
it expands the sum-of-squares identity on the table itself, apart from
the plan and from the orbit quotient that :mod:`harmlat.growth` runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product, repeat
from operator import add, mul, sub
from typing import Iterable, Optional

from . import balls
from .errors import (
    DomainTooSmallError,
    HarmonicityError,
    InvalidGeneratorError,
    InvalidParameterError,
    UsageError,
)
from .rationals import (
    common_denominator, format_rational, parse_int, parse_rational, reduce_in_place,
)


@dataclass(frozen=True)
class LatticeBall:
    """Closed l1 ball of radius R centered at the origin of Z^d."""

    d: int
    R: int

    def __post_init__(self):
        balls.check_dimension(self.d)
        if not isinstance(self.R, int) or self.R < 0:
            raise InvalidParameterError(f"radius must be a non-negative integer, got {self.R!r}")

    @property
    def point_count(self) -> int:
        return balls.ball_point_count(self.d, self.R)

    @property
    def points(self) -> tuple:
        return balls.ball_points(self.d, self.R)

    def contains(self, point) -> bool:
        return len(point) == self.d and sum(abs(c) for c in point) <= self.R

    def index_of(self, point) -> int:
        return balls.ball_position(self.d, self.R)[tuple(point)]


class LatticeFunction:
    """Dense exact-rational function on a ball; equality is pointwise."""

    __slots__ = ("ball", "_nums", "_den", "_orthant")

    def __init__(self, ball: LatticeBall, nums: Iterable[int], den: int = 1):
        if den <= 0:
            raise InvalidParameterError("denominator must be positive")
        nums = list(nums)
        if len(nums) != ball.point_count:
            raise InvalidParameterError(
                f"expected {ball.point_count} values on B_{ball.R} of Z^{ball.d}, got {len(nums)}"
            )
        den = reduce_in_place(den, nums)
        self.ball = ball
        self._nums = tuple(nums)
        self._den = den
        self._orthant = None

    @classmethod
    def _reduced(
        cls, ball: LatticeBall, nums: list, den: int, orthant: Optional[list] = None
    ) -> "LatticeFunction":
        """Take over ``nums``, already one value per point and in lowest terms with ``den``.

        No copy to a list and no gcd pass.  ``orthant``, when given, holds
        the numerators over ``den`` at the points x >= 0, in lex order, of a
        function whose square is the same at every sign flip of a point's
        coordinates; :func:`harmlat.growth.growth_report` squares only
        those.  Every other table has ``_orthant`` None, and equality and
        hashing ignore it.
        """
        self = cls.__new__(cls)
        self.ball, self._nums, self._den = ball, tuple(nums), den
        self._orthant = None if orthant is None else tuple(orthant)
        return self

    # -- construction -------------------------------------------------

    @classmethod
    def from_values(cls, ball: LatticeBall, values: Iterable) -> "LatticeFunction":
        """Build from a value sequence aligned with ``ball.points`` (lex order)."""
        return cls(ball, *common_denominator(map(Fraction, values)))

    @classmethod
    def constant(cls, ball: LatticeBall, c) -> "LatticeFunction":
        c = Fraction(c)
        return cls(ball, [c.numerator] * ball.point_count, c.denominator)

    # -- access --------------------------------------------------------

    @property
    def d(self) -> int:
        return self.ball.d

    @property
    def R(self) -> int:
        return self.ball.R

    def scaled_values(self) -> tuple:
        """(numerator tuple, common denominator); aligned with ball.points."""
        return self._nums, self._den

    def value(self, point) -> Fraction:
        return Fraction(self._nums[self.ball.index_of(point)], self._den)

    def values(self) -> list:
        den = self._den
        return [Fraction(n, den) for n in self._nums]

    def items(self):
        den = self._den
        for p, n in zip(self.ball.points, self._nums):
            yield p, Fraction(n, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        return (
            self.ball == other.ball
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.ball, self._den, self._nums))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._nums)

    # -- pointwise algebra (exact) --------------------------------------

    def scale(self, c) -> "LatticeFunction":
        c = Fraction(c)
        return LatticeFunction(
            self.ball, [v * c.numerator for v in self._nums], self._den * c.denominator
        )

    def add(self, other: "LatticeFunction") -> "LatticeFunction":
        if self.ball != other.ball:
            raise InvalidParameterError("functions live on different balls")
        da, db = self._den, other._den
        nums = [a * db + b * da for a, b in zip(self._nums, other._nums)]
        return LatticeFunction(self.ball, nums, da * db)

    def square(self) -> "LatticeFunction":
        return LatticeFunction(self.ball, [v * v for v in self._nums], self._den * self._den)

    # -- JSON wire format ------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for p, n in zip(self.ball.points, self._nums):
            entries.append(list(p) + [format_rational(Fraction(n, self._den))])
        return {"d": self.d, "R": self.R, "entries": entries}

    @classmethod
    def from_json(cls, obj: dict, sparse: bool = False) -> "LatticeFunction":
        """Parse the wire format; the ball is checked against the cell cap first."""
        try:
            d, R = parse_int(obj["d"]), parse_int(obj["R"])
            raw = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed lattice function JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise UsageError(f"entries {raw!r} are not a list")
        ball = LatticeBall(d, R)
        balls.guard_cells(d, R)
        table = {}
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != d + 1:
                raise UsageError(f"entry {entry!r} is not a list of {d} coordinates and a value")
            point = tuple(map(parse_int, entry[:d]))
            if not ball.contains(point):
                raise UsageError(f"point {point} lies outside B_{R}")
            if point in table:
                raise UsageError(f"duplicate entry for point {point}")
            table[point] = parse_rational(entry[d])
        if len(table) < ball.point_count and not sparse:
            missing = next(p for p in ball.points if p not in table)
            raise UsageError(
                f"missing value at {missing}; pass --sparse to default omitted points to 0"
            )
        return cls.from_values(ball, [table.get(p, 0) for p in ball.points])


# -- operators ----------------------------------------------------------


def laplacian(u: LatticeFunction) -> LatticeFunction:
    """Probabilistic Laplacian; result lives on the ball one radius smaller."""
    if u.R < 1:
        raise DomainTooSmallError("laplacian needs radius >= 1")
    twod = 2 * u.d
    inner, cols = balls.laplacian_plan(u.d, u.R)
    nums, den = u.scaled_values()
    get = nums.__getitem__
    acc = map(mul, map(get, inner), repeat(-twod))
    for col in cols:
        acc = map(add, acc, map(get, col))
    return LatticeFunction(LatticeBall(u.d, u.R - 1), acc, den * twod)


def laplacian_power(u: LatticeFunction, k: int) -> LatticeFunction:
    """k-fold iterate of the Laplacian, shrinking the ball by k."""
    if k < 0:
        raise InvalidParameterError("k must be non-negative")
    if k > u.R:
        raise DomainTooSmallError(f"need k <= R, got k={k} on B_{u.R}")
    for _ in range(k):
        u = laplacian(u)
    return u


def directional_difference(u: LatticeFunction, step) -> LatticeFunction:
    """u_s(x) = u(x + s) - u(x) on the ball one radius smaller."""
    if u.R < 1:
        raise DomainTooSmallError("directional difference needs radius >= 1")
    step = tuple(step)
    steps = balls.unit_steps(u.d)
    if step not in steps:
        raise InvalidGeneratorError(f"{step} is not a unit generator of Z^{u.d}")
    inner, cols = balls.laplacian_plan(u.d, u.R)
    nums, den = u.scaled_values()
    get = nums.__getitem__
    diff = map(sub, map(get, cols[steps.index(step)]), map(get, inner))
    return LatticeFunction(LatticeBall(u.d, u.R - 1), diff, den)


def is_harmonic(u: LatticeFunction) -> bool:
    """Exact test: Laplacian identically zero on the interior ball."""
    if u.R < 1:
        raise DomainTooSmallError("harmonicity is undecidable on a radius-0 ball")
    return laplacian(u).is_zero()


def sos_laplacian_power(u: LatticeFunction, k: int) -> Fraction:
    """Value of L^k(u^2) at the origin via the sum-of-squares identity.

    For harmonic u,

        L^k(u^2) = (1/(2d)^k) * sum over all k-tuples (s_1..s_k) of
                   generators of (u_{s_1...s_k})^2,

    where u_s(x) = u(x+s) - u(x).  Iterated differences commute, so the
    sum is taken over generator multisets weighted by multinomial counts,
    and each difference at the origin expands by inclusion-exclusion,
    prod_s (shift_s - 1)^{m_s}, over the sub-multisets j_s <= m_s: the
    shift by j reaches the point with coordinates j_{2a} - j_{2a+1}.
    Only the harmonicity precondition reads the Laplacian.
    """
    if k < 0:
        raise InvalidParameterError("k must be non-negative")
    if k > u.R:
        raise DomainTooSmallError(f"need k <= R, got k={k} on B_{u.R}")
    if u.R >= 1 and not is_harmonic(u):
        raise HarmonicityError("sum-of-squares identity requires a harmonic function")
    twod = 2 * u.d
    pos = balls.ball_position(u.d, u.R)
    nums, den = u.scaled_values()

    total = 0
    for multiset in combinations_with_replacement(range(twod), k):
        counts = [multiset.count(s) for s in range(twod)]
        weight = math.factorial(k) // math.prod(map(math.factorial, counts))
        value = 0
        for js in product(*(range(m + 1) for m in counts)):
            coeff = math.prod(map(math.comb, counts, js))
            point = tuple(map(sub, js[::2], js[1::2]))
            value += (-1) ** (k - sum(js)) * coeff * nums[pos[point]]
        total += weight * value * value
    return Fraction(total, den * den * twod ** k)

