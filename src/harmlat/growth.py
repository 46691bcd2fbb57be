"""Growth functions of lattice functions along the simple random walk.

Q_u(n) is the mean of u(X_n)^2 over the n-step simple random walk from
the origin, computed exactly as

    Q_u(n) = sum_x u(x)^2 W(n, x) / (2d)^n,

where W(n, x) counts n-step walks ending at x.  The growth is held as
its binomial coefficients a_k, Q(n) = sum_k a_k C(n, k), in one
:class:`GrowthPolynomial`.  The a_k are the forward differences of
Q(0..N) at 0 and independently equal the iterated-Laplacian values
L^k(u^2)(0), a cross-check performed on every report; a report covers
Q(n) for n <= N.  Every other difference is read off the a_k,
Delta^c Q(n) = sum_j a_(c+j) C(n, j), so Q is absolutely monotone on
0..N exactly when a_0..a_N >= 0; only the walk route of a report takes
differences of a table of Q.

For a polynomial P of degree M, a_k = 0 for k > M.  Its a_0..a_M, read
off the report on the ball B_{M+1}, give Q(n) at any n it is asked for,
as well as the growth Qc(t) = sum_k a_k t^k / k! of the continuous-time
walk.

Walk counts and all origin-centered kernels are invariant under
coordinate permutations and sign flips, so the heavy convolutions run
on the orbit quotient of the ball (see :mod:`harmlat.balls`).  Both
kernels, walk-count rows and the Laplacian cascade, are C-level map
passes over the quotient's neighbour columns, in exact Python ints.
Z^d is bipartite, so W(n, x) = 0 unless |x|_1 = n (mod 2): walk row n
holds only the orbits of that radius parity, and Q(n) is summed over
them alone.  Walk rows are cached per dimension and extended
incrementally; rows built against a smaller orbit table stay valid
against a larger one.

A report reads u through its orbit square sums, on B_N only, over the
square of u's own denominator; it divides nothing.  A polynomial's
table keeps the line seeds of its parity components, so the report runs
the components' lines on the orthant only and adds their summed squares
straight into the orbit sums; it holds no orthant-sized list.  With
several components it runs the lines one radius at a time, and the
lines through the permutations of one point, a line orbit, share one
line of summed squares.  A table whose full values are built has each
cell squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from operator import add, lshift, mul, sub
from typing import Optional

from . import balls
from .errors import HarmError, InvalidParameterError, OutOfRangeError
from .lattice import LatticeFunction, _line, _line_runs, is_harmonic
from .polynomials import MultivariatePolynomial, evaluate_on_ball
from .rationals import common_denominator, format_rational


# -- walk counts on the orbit quotient ----------------------------------------

_walk_rows: dict = {}


def _neighbour_sums(cols, values: list, m: int):
    """Lazy sums over the 2d neighbour columns of values[col[i]], for i < m.

    One chain of C-level maps over whole columns (see
    :class:`harmlat.balls.OrbitTable`); no per-element Python loop.
    """
    get = values.__getitem__
    terms = [map(get, islice(col, m)) for col in cols]
    acc = terms[0]
    for term in terms[1:]:
        acc = map(add, acc, term)
    return acc


def _orbit_walk_rows(d: int, n: int) -> list:
    """Rows 0..n of walk counts, each on one radius-parity class of orbit reps (cached per d).

    W(m, x) = 0 unless |x|_1 <= m and |x|_1 = m (mod 2), so row m holds
    W(m, x), for any x in the orbit, only for the representatives of that
    class: it is aligned with the first parity_prefix[m] of them, in
    (radius, lex) order, and every entry is positive.  A unit step changes
    the radius parity, so row m sums row m-1 over the neighbour columns of
    its class, re-indexed into the other (``OrbitTable.parity_cols``).
    Row m-1 is padded with zeros up to radius m + 1, which the columns
    reach, and then with one more zero, which the -1 of an outside
    neighbour reads.
    """
    tab = balls.orbit_table(d, n)
    rows = _walk_rows.setdefault(d, [[1]])
    while len(rows) <= n:
        m = len(rows)  # building row m from row m-1
        prev = rows[m - 1]
        reach = tab.parity_prefix[m + 1] if m < tab.radius else len(prev)
        padded = prev + [0] * (reach - len(prev) + 1)
        cols = tab.parity_cols[m % 2]
        rows.append(list(_neighbour_sums(cols, padded, tab.parity_prefix[m])))
    return rows


# -- exact growth values -------------------------------------------------------


def _orbit_square_sums(u: LatticeFunction, N: Optional[int] = None) -> tuple:
    """(sums, den): the squared numerators of u over den summed over each orbit of B_N.

    N defaults to the radius of u's ball, and only the cells of B_N are
    squared and scattered: the orbits of B_N are the first
    count_up_to(N) of the orbit table.  A table from
    :func:`harmlat.polynomials.evaluate_on_ball` whose full values have
    not been built carries its parity components u_e as line seeds on the
    orthant x >= 0.  For x >= 0, the sum of u^2 over the distinct sign
    flips of x is 2^nz(x) sum_e u_e(x)^2, with nz(x) the number of nonzero
    coordinates: the sign characters of the components are orthogonal
    over those flips, and a component odd in a zero coordinate of x
    vanishes at x.  Each point of an orbit has exactly one flip in the
    orthant, and nz is the same on the whole orbit.  So the components'
    lines are run on the orthant of B_N only, their squares are summed
    per cell and added into the sums of the cells' orbits, and each
    orbit's sum is then taken 2^nz times; the full table is not built.

    A table with one component runs its lines one at a time
    (:func:`harmlat.lattice._line_runs`).  With several components the
    lines go by line orbit (:func:`_line_orbit_batches`):
    the lines through x' and through a permutation of x' cross the same
    orbits of B_N in the same order, so their summed squares are added
    up and scattered along one of them.  Along a line the summed squares
    are one polynomial in z, even (each component is even or odd in z) and
    of degree <= 2m, with m the highest seed order, so they are fixed by
    their values at z = 0..m, mirrored to z = -m..m.  Each component's
    values at z = 0..m are run on every line of a batch at once
    (:func:`_heads`), squared, summed over the components and over each
    line orbit's lines; a line orbit no longer than m + 1 is scattered
    from those values, and a longer one runs the rest as the line of that
    polynomial, the square line, one per line orbit.

    Every other table, one whose full values are built included, has each
    cell's square scattered.  On both routes den is the table's own, and
    nothing is reduced for N < R: the sums are exact over den^2 as they
    stand.
    """
    N = u.R if N is None else N
    tab = balls.orbit_table(u.d, N)
    sums = [0] * tab.count_up_to(N)
    if u._scaled is not None:
        nums, den = u._scaled
        if N < u.R:
            nums = list(map(nums.__getitem__, balls.inner_ball_positions(u.d, u.R, N)))
        for oi, sq in zip(balls.point_orbit_indices(u.d, N), map(mul, nums, nums)):
            sums[oi] += sq
        return sums, den
    parts, remaining, den = u._orthant
    cells = balls.point_orbit_indices(u.d, N, True)
    if len(parts) == 1:  # each line's own squares
        cells = iter(cells)
        for n, line_seeds in _line_runs(parts[0][1], remaining, u.R - N):
            values = list(islice(_line(line_seeds), n))
            # squares first: zip stops at the line's end without taking a cell
            for sq, oi in zip(map(mul, values, values), cells):
                sums[oi] += sq
    elif parts:
        m = max(len(seeds) for _, seeds in parts) - 1
        for positions, slots, orbits in _line_orbit_batches(u.d, remaining, N):
            longest = max(n for _, n in orbits)
            heads = [_heads(seeds, positions, min(m + 1, longest)) for _, seeds in parts]
            totals = list(map(_summed_squares, zip(*heads)))
            if len(orbits) < len(positions):  # add up each line orbit's lines
                summed = [[0] * len(orbits) for _ in totals]
                for total, orbit_total in zip(totals, summed):
                    for o, sq in zip(slots, total):
                        orbit_total[o] += sq
                totals = summed
            lines = repeat(None)
            if longest > m + 1:  # the square lines' seeds, at z = -m of the mirrored values
                row, seeds = totals[:0:-1] + totals, []
                while row:
                    seeds.append(row[0])
                    row = [list(map(sub, b, a)) for a, b in zip(row, row[1:])]
                lines = zip(*seeds)
            for (start, n), head, line_seeds in zip(orbits, zip(*totals), lines):
                if n > m + 1:
                    head = islice(_line(line_seeds), m, m + n)
                for sq, oi in zip(head, cells[start : start + n]):
                    sums[oi] += sq
    zeros = map(tuple.count, tab.reps, repeat(0))
    sums = list(map(lshift, sums, map(sub, repeat(u.d), zeros)))
    return sums, den


def _line_orbit_batches(d: int, remaining: list, N: int) -> list:
    """The lines of the orthant of B_N of Z^d in batches, by line orbit.

    ``remaining`` is the b = R - |x'|_1 of each line of the table on B_R
    (see :func:`harmlat.lattice._line_runs`); the line through x' keeps
    its n = N - |x'|_1 + 1 values z = 0..n - 1 on B_N, when n >= 1.  Its
    line orbit is the orbit of x' in the orthant of B_N of Z^(d-1), from
    :func:`harmlat.balls.point_orbit_indices` (Z^1 has one line), so
    every line of a line orbit has the same length.  A batch is one radius
    |x'|_1 when d >= 3; in Z^2 every line orbit is one line, and the whole
    orthant is one batch.  Each batch is (positions, slots, orbits): each
    line's index among the seeds, each line's line orbit among the
    batch's, and each line orbit's (start, n), with ``start`` the offset
    of its first line's cells in the orthant of B_N, whose lines lie end
    to end in lex order.
    """
    cut = remaining[0] - N  # the first line, x' = 0, has b = R
    batches: dict = {}
    start = 0
    lines = ((i, b - cut + 1) for i, b in enumerate(remaining) if b >= cut)
    line_orbits = balls.point_orbit_indices(d - 1, N, True) if d > 1 else (0,)
    for (i, n), orbit in zip(lines, line_orbits):
        positions, slots, orbits = batches.setdefault(n if d > 2 else 0, ([], [], {}))
        positions.append(i)
        slots.append(orbits.setdefault(orbit, (len(orbits), start, n))[0])
        start += n
    return [(p, s, [o[1:] for o in orbits.values()]) for p, s, orbits in batches.values()]


def _heads(seeds: list, positions: list, count: int) -> list:
    """Values z = 0..count - 1 of the lines at ``positions``, one list per z, from their seeds.

    Each order's seeds are gathered by index, and each pass sums adjacent
    orders over the whole batch (Pascal's rule, Delta^j f(z + 1) =
    Delta^j f(z) + Delta^(j+1) f(z)), only as far as a later value reads.
    """
    orders = [list(map(order.__getitem__, positions)) for order in seeds]
    heads = [orders[0]]
    for z in range(1, count):
        for j in range(min(len(orders) - 1, count - z)):
            orders[j] = list(map(add, orders[j], orders[j + 1]))
        heads.append(orders[0])
    return heads


def _summed_squares(lists) -> list:
    """The entrywise sum of the squares of two or more equally long ``lists``."""
    total = None
    for values in lists:
        square = map(mul, values, values)
        total = square if total is None else map(add, total, square)
    return list(total)


def _newton_via_laplacian(
    u: LatticeFunction, squares: Optional[tuple] = None, N: Optional[int] = None
) -> list:
    """The values L^k(u^2)(0), k = 0..N (default N = R), via the symmetrized cascade.

    L commutes with the symmetries fixing the origin, so L^k(u^2)(0)
    equals L^k applied to the symmetrized square of u, evaluated at the
    origin; the cascade then runs on orbit representatives, one pass of
    column sums per order.  Order k at the origin reads only B_k, so the
    cascade runs on B_N: the representatives are ordered by radius, and
    those of B_N are a prefix of the table.  Once L^k(u^2) vanishes on
    its ball, every higher order is 0 and the passes stop; for a
    polynomial of degree M that happens at k = M + 1.  ``squares`` are
    the orbit square sums of u on B_N with their denominator when the
    caller already has them (:func:`growth_report` does).
    """
    d = u.d
    N = u.R if N is None else N
    tab = balls.orbit_table(d, N)
    sums, den = _orbit_square_sums(u, N) if squares is None else squares
    G = balls.group_order(d)
    twod = 2 * d
    # h[i] = G * (symmetrized u^2)(rep_i) * den^2, for the reps of B_N
    h = list(map(mul, sums, map(G.__floordiv__, tab.sizes)))
    out = [Fraction(h[0], G * den * den)]
    for k in range(1, N + 1):
        if not any(h):
            out += [Fraction(0)] * (N + 1 - k)
            break
        m = tab.count_up_to(N - k)
        h = list(map(sub, _neighbour_sums(tab.cols, h, m), map(mul, h, repeat(twod))))
        out.append(Fraction(h[0], G * den * den * twod ** k))
    return out


def _difference_triangle(values: list) -> list:
    """The a_k = Delta^k Q(0) of Q(0..N) = ``values``, up to the last nonzero one.

    The rows of forward differences are taken in integers over one
    denominator, and each row gives only its first entry, as a Fraction.
    The differences of an all-zero row are zero, so the rows stop at the
    first all-zero one; the row before it is a nonzero constant (or a
    single entry), so the last a_k returned is nonzero.  For the values
    of a polynomial of degree M no a_k past a_M is returned.
    """
    row, den = common_denominator(values)
    newton = []
    while any(row):
        newton.append(Fraction(row[0], den))
        row = list(map(sub, row[1:], row))
    return newton


@dataclass(frozen=True)
class GrowthPolynomial:
    """Q(n) = sum_k a_k C(n, k) from its binomial coefficients a_k = L^k(u^2)(0).

    ``newton`` holds a_0..a_m with a_m != 0 (empty when Q = 0), so Q(n)
    costs O(m).  ``n_max`` is None when they are all of the nonzero a_k
    (Q is then known at every n, as for a polynomial input), else the
    largest n for which Q(n) is known, since Q(n) reads only the a_j with
    j <= n.  For a polynomial the object also gives the growth
    Qc(t) = sum_k a_k t^k / k! of the continuous-time walk.
    """

    d: int
    newton: tuple
    n_max: Optional[int] = None

    @cached_property
    def _scaled(self) -> tuple:
        return common_denominator(self.newton)

    @cached_property
    def _values(self) -> tuple:
        """Q(0..n_max): the running sums whose forward differences at 0 are the a_k."""
        nums, den = self._scaled
        if not nums:
            return (Fraction(0),) * (self.n_max + 1)
        return tuple(Fraction(v, den) for v in islice(_line(nums), self.n_max + 1))

    def Q(self, n: int) -> Fraction:
        """Q(n): read off Q(0..n_max) when n_max is set, else summed with running binomials.

        The sum runs in integers over one denominator.
        """
        if n < 0 or (self.n_max is not None and n > self.n_max):
            covers = "every n >= 0" if self.n_max is None else f"0..{self.n_max}"
            raise OutOfRangeError(
                f"growth value at n={n} not available (the growth polynomial covers {covers})"
            )
        if self.n_max is not None:
            return self._values[n]
        nums, den = self._scaled
        total, binom = 0, 1
        for j, c in enumerate(nums):
            total += c * binom
            binom = binom * (n - j) // (j + 1)  # C(n, j+1); 0 from j = n on
        return Fraction(total, den)

    def to_json(self, n_max: int, include_newton: bool = False) -> dict:
        """The growth report of Q(0..n_max), with a_0..a_n_max zero-padded on request."""
        obj = {
            "kind": "growth_report",
            "d": self.d,
            "n_max": n_max,
            "values": [format_rational(self.Q(n)) for n in range(n_max + 1)],
        }
        if include_newton:
            newton = (self.newton + (0,) * (n_max + 1))[: n_max + 1]
            obj["newton"] = [format_rational(a) for a in newton]
        return obj

    @cached_property
    def continuous_coeffs(self) -> tuple:
        """c_k = a_k / k! up to the last nonzero a_k: Qc(t) = sum_k c_k t^k."""
        if self.n_max is not None:
            raise OutOfRangeError(
                "the continuous-time growth needs every a_k; build the growth polynomial "
                "without n_max"
            )
        return tuple(a / math.factorial(k) for k, a in enumerate(self.newton)) or (Fraction(0),)

    def continuous(self, t) -> Fraction:
        """Exact Qc(t), the growth function of the continuous-time walk."""
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.continuous_coeffs):
            acc = acc * t + c
        return acc

    def continuous_json(self) -> dict:
        return {
            "kind": "continuous_growth",
            "coeffs": [format_rational(c) for c in self.continuous_coeffs],
        }


def growth_report(u: LatticeFunction, n_max: Optional[int] = None) -> GrowthPolynomial:
    """Exact growth of u on 0..n_max (default: the ball radius), as a partial GrowthPolynomial.

    The binomial coefficients are computed twice, as forward differences
    of Q(0..N) at 0 and through iterated Laplacians of u^2 at the origin;
    the two routes must agree exactly or the report is refused.  The
    orbit square sums of u, the one pass over the cells of the ball (of
    its orthant only, for a polynomial's table), are computed once and
    feed both routes.  With n_max < R both routes run on B_{n_max} only.
    The result holds the a_k before the first zero difference row and has
    ``n_max`` = N.
    """
    N = u.R if n_max is None else n_max
    if N < 0 or N > u.R:
        raise OutOfRangeError(f"need 0 <= n_max <= {u.R}, got {n_max}")
    squares = _orbit_square_sums(u, N)
    sums, den = squares
    den2 = den * den
    twod = 2 * u.d
    rows = _orbit_walk_rows(u.d, N)
    tab = balls.orbit_table(u.d, N)
    classes = [tab.by_parity(sums, p, N) for p in (0, 1)]
    values = [
        Fraction(sum(map(mul, rows[n], classes[n % 2])), den2 * twod ** n) for n in range(N + 1)
    ]
    newton = tuple(_difference_triangle(values))
    if list(newton) + [0] * (N + 1 - len(newton)) != _newton_via_laplacian(u, squares, N):
        raise HarmError(
            "internal inconsistency: difference-triangle coefficients disagree "
            "with iterated-Laplacian values"
        )
    return GrowthPolynomial(u.d, newton, N)


# -- absolute monotonicity ------------------------------------------------------


@dataclass(frozen=True)
class AbsoluteMonotonicityResult:
    holds: bool
    first_violation: Optional[tuple] = None  # (k, n)
    value: Optional[Fraction] = None


def check_absolute_monotonicity(growth: GrowthPolynomial) -> AbsoluteMonotonicityResult:
    """Every forward difference of Q non-negative, read off the signs of the a_k.

    Delta^c Q(n) = sum_j a_(c+j) C(n, j) and Delta^c Q(0) = a_c, so Q is
    absolutely monotone on 0..n_max exactly when a_0..a_n_max >= 0, and
    on every n >= 0 for a complete growth polynomial (n_max None).  A
    violation is (k, 0) with value a_k for the first negative a_k, not the
    row-major first negative difference: for Q = (0, 0, -1) it is (2, 0),
    not (0, 2).
    """
    known = growth.newton if growth.n_max is None else growth.newton[: growth.n_max + 1]
    for k, a in enumerate(known):
        if a < 0:
            return AbsoluteMonotonicityResult(False, (k, 0), a)
    return AbsoluteMonotonicityResult(True)


# -- growth polynomials of polynomial inputs ----------------------------------------


def growth_polynomial(P: MultivariatePolynomial, n_max: Optional[int] = None) -> GrowthPolynomial:
    """The growth polynomial of P, enumerating only B_R with R = min(n_max, M + 1).

    Each Laplacian lowers the degree of P^2 by two, so a_k = 0 for k > M
    = deg P, and a_0..a_M, the forward differences of Q(0..M) at 0, read
    P on B_M only.  They are read from the growth report of P on B_R
    (R = M + 1 when n_max is None), which checks the walk route against
    the Laplacian cascade; the walk route must hold no a_k past a_M.
    With R <= M the object covers Q(n) for n <= R only.  The identity
    needs no harmonicity.
    """
    if n_max is not None and n_max < 0:
        raise InvalidParameterError("n_max must be non-negative")
    R = max(P.degree, 0) + 1
    return _growth_from_table(P, evaluate_on_ball(P, R if n_max is None else min(n_max, R)))


def harmonic_growth_polynomial(P: MultivariatePolynomial) -> Optional[GrowthPolynomial]:
    """growth_polynomial(P) if P is lattice-harmonic (decided on B_(M+1)), else None; one table."""
    u = evaluate_on_ball(P, max(P.degree, 0) + 1)
    return _growth_from_table(P, u) if is_harmonic(u) else None


def _growth_from_table(P: MultivariatePolynomial, u: LatticeFunction) -> GrowthPolynomial:
    """The growth polynomial of P from its table u on B_R, R <= M + 1; complete when R = M + 1."""
    M = max(P.degree, 0)
    newton = growth_report(u).newton
    if len(newton) > M + 1:
        raise HarmError(
            "internal inconsistency: growth coefficients beyond the degree do not vanish"
        )
    return GrowthPolynomial(P.d, newton, None if u.R == M + 1 else u.R)
