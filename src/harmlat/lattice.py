"""Exact lattice functions on l1 balls of Z^d and the probabilistic Laplacian.

The Laplacian is normalized as the one-step random-walk generator,

    (L u)(x) = (1/2d) * sum_{s in S} u(x + s) - u(x),

with S the 2d unit steps; this is the normalization under which the
n-step walk distribution satisfies p(n+1, x) - p(n, x) = (L p)(n, x).

A :class:`LatticeFunction` is a dense table of exact rationals over a
ball, held in the integer form of :mod:`harmlat.rationals`: integer
numerators over one common denominator, in lowest terms.  All
operations are pure; values are immutable after construction.  A table
evaluated from a polynomial is handed over as parity components on the
orthant x >= 0, each given by the seeds of its lines along the last
coordinate (see :func:`harmlat.polynomials.evaluate_on_ball`), each in
lowest terms over one denominator, and keeps no value.  It also keeps
m, the largest exponent of any one coordinate.  One runner,
:func:`_line_runs`, lays the lines out for every reader but the growth
report of a table whose ball holds the box [0..m]^d, which reads by
index the seeds of the lines through the box only.  The report keeps
only the components' squares summed per orbit; the values on the whole
ball are built on their first read, one component at a time, each
copied to the other orthants with its signs and the copies summed and
reduced.

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
from itertools import accumulate, chain, combinations_with_replacement, islice, product, repeat
from operator import add, mul, neg, sub
from typing import Iterable

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

    __slots__ = ("ball", "_scaled", "_orthant")

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
        self._scaled = (tuple(nums), den)
        self._orthant = None

    @classmethod
    def _from_orthant(
        cls, ball: LatticeBall, parts: list, remaining: list, den: int, exponent: int
    ) -> "LatticeFunction":
        """The sum of parity components, each given by its line seeds on the orthant x >= 0.

        ``parts`` holds (signs, seeds) pairs: flipping coordinate l
        multiplies the component by signs[l], and its numerators over
        ``den`` on the orthant of ``ball`` are :func:`_lines` of its seeds
        and ``remaining``.  ``den`` shares no factor with the components'
        values (see :func:`harmlat.polynomials.evaluate_on_ball`), and
        ``exponent`` is the largest exponent of any one coordinate in the
        polynomial.  No value is kept: :func:`harmlat.growth.growth_report`
        squares the components' values on the orthant, reading only the
        lines through the box [0..exponent]^d when the ball holds it, and
        the full table is built one component at a time on its first read
        (:meth:`scaled_values`).
        """
        self = cls.__new__(cls)
        self.ball, self._scaled, self._orthant = ball, None, (parts, remaining, den, exponent)
        return self

    def _assemble(self) -> tuple:
        """(nums, den) on the whole ball: each component unfolded with its signs, summed.

        Each component is in lowest terms over the joint denominator, but
        a sum of two or more need not be, so the sum is reduced; for one
        component the reduction finds nothing to divide.
        """
        parts, remaining, den, _ = self._orthant
        nums = [0] * self.ball.point_count
        for k, (signs, seeds) in enumerate(parts):
            values = _unfold(_lines(seeds, remaining), signs, self.R)[0]
            nums = list(map(add, nums, values)) if k else values
            del values  # one component's values at a time
        den = reduce_in_place(den, nums)
        return tuple(nums), den

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
        """(numerator tuple, common denominator) in lowest terms; aligned with ball.points."""
        if self._scaled is None:
            self._scaled = self._assemble()
        return self._scaled

    def value(self, point) -> Fraction:
        nums, den = self.scaled_values()
        return Fraction(nums[self.ball.index_of(point)], den)

    def values(self) -> list:
        nums, den = self.scaled_values()
        return [Fraction(n, den) for n in nums]

    def items(self):
        nums, den = self.scaled_values()
        for p, n in zip(self.ball.points, nums):
            yield p, Fraction(n, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        return self.ball == other.ball and self.scaled_values() == other.scaled_values()

    def __hash__(self):
        return hash((self.ball, self.scaled_values()))

    def is_zero(self) -> bool:
        return not any(self.scaled_values()[0])

    # -- pointwise algebra (exact) --------------------------------------

    def scale(self, c) -> "LatticeFunction":
        c = Fraction(c)
        nums, den = self.scaled_values()
        return LatticeFunction(self.ball, [v * c.numerator for v in nums], den * c.denominator)

    def add(self, other: "LatticeFunction") -> "LatticeFunction":
        if self.ball != other.ball:
            raise InvalidParameterError("functions live on different balls")
        (a_nums, da), (b_nums, db) = self.scaled_values(), other.scaled_values()
        nums = [a * db + b * da for a, b in zip(a_nums, b_nums)]
        return LatticeFunction(self.ball, nums, da * db)

    def square(self) -> "LatticeFunction":
        nums, den = self.scaled_values()
        return LatticeFunction(self.ball, [v * v for v in nums], den * den)

    # -- JSON wire format ------------------------------------------------

    def to_json(self) -> dict:
        nums, den = self.scaled_values()
        entries = [
            list(p) + [format_rational(Fraction(n, den))] for p, n in zip(self.ball.points, nums)
        ]
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


def _lines(seeds: list, remaining: list) -> list:
    """The values on the orthant x >= 0 of B_R of Z^d: the lines of :func:`_line_runs`, in turn."""
    out: list = []
    for n, line_seeds in _line_runs(seeds, remaining):
        out.extend(islice(_line(line_seeds), n))
    return out


def _line_runs(seeds: list, remaining: list, cut: int = 0):
    """(n, line seeds) of each line of the orthant x >= 0 of B_(R-cut) of Z^d, in lex order.

    ``seeds`` are the forward differences along the last coordinate z at
    z = 0, one list per order, aligned with ``remaining``: the
    b = R - |x'|_1 of every x' >= 0 of B_R of Z^(d-1), in lex order.  The
    line through x' is kept when b >= cut and has the n = b - cut + 1
    values z = 0..b - cut, which :func:`_line` runs from its seeds in
    len(seeds) - 1 chained running sums, in exact ints; in lex order these
    lines are the orthant of B_(R-cut).
    """
    for b, line_seeds in zip(remaining, zip(*seeds)):
        if b >= cut:
            yield b - cut + 1, line_seeds


def _line(seeds: tuple):
    """f(0), f(1), ... of the polynomial whose forward differences at 0 are ``seeds``."""
    seq = repeat(seeds[-1])
    for s in reversed(seeds[:-1]):
        seq = accumulate(seq, initial=s)
    return seq


def _unfold(orth: list, signs: tuple, R: int, negated=False) -> tuple:
    """Values on B_R of Z^d from those on its orthant x >= 0, both in lex order.

    Flipping coordinate l multiplies the function by signs[l].  B_R is
    the blocks {v} x B_{R-|v|} of Z^(d-1), v = -R..R (points, for d = 1):
    the blocks v >= 0 are unfolded from their orthant parts, and block -v
    is block v times signs[0], copied whole.  Returns the values and, with
    ``negated``, minus the values (else None).  The blocks are unfolded
    with their negations where a sign is -1, so no value is negated twice.
    """
    s, rest = signs[0], signs[1:]
    need = negated or s < 0
    if rest:
        sizes = [math.comb(R - v + len(rest), len(rest)) for v in range(R + 1)]
        parts = [
            _unfold(orth[end - size : end], rest, R - v, need)
            for v, (size, end) in enumerate(zip(sizes, accumulate(sizes)))
        ]
        plus, minus = [p for p, _ in parts], [m for _, m in parts]
    else:
        plus, minus = orth, list(map(neg, orth)) if need else None
    values = _join(plus, plus if s > 0 else minus, rest)
    return values, _join(minus, minus if s > 0 else plus, rest) if negated else None


def _join(blocks: list, back: list, nested) -> list:
    """Blocks -v for v = R..1 (from ``back``), then v = 0..R, as one list.

    The blocks are lists when ``nested``, else single values.
    """
    if nested:
        return list(chain.from_iterable(chain(back[:0:-1], blocks)))
    return back[:0:-1] + blocks


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

