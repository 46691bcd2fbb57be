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
table keeps the line seeds of its parity components.  Their summed
square s is a polynomial, even in every coordinate and of degree at most
2m in each, with m the largest exponent of any one coordinate of P; so
is its sum sigma over the permutations of the coordinates, and the orbit
sum of a representative r is sigma(r) size(r) / d!.  When d m <= R the
report reads s on the box [0..m]^d, from the lines through it only, and
extends sigma axis by axis to the representatives of B_N, with no plan
of cells.  Any other polynomial table runs its lines on the orthant,
one line of each component at a time, and adds their summed squares
straight into the orbit sums.  A table whose full values are built has
each cell squared.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product, repeat
from operator import add, floordiv, lshift, mul, sub
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

    N defaults to the radius of u's ball; the orbits of B_N are the first
    count_up_to(N) of the orbit table.  A table from
    :func:`harmlat.polynomials.evaluate_on_ball` whose full values have
    not been built carries its parity components u_e as line seeds on the
    orthant x >= 0.  For x >= 0, the sum of u^2 over the distinct sign
    flips of x is 2^nz(x) s(x), with s = sum_e u_e^2 and nz(x) the number
    of nonzero coordinates: the sign characters of the components are
    orthogonal over those flips, and a component odd in a zero coordinate
    of x vanishes at x.  Each point of an orbit has exactly one flip in
    the orthant, and nz is the same on the whole orbit.  So the sum over
    the orbit of a representative r = (x_1 <= ... <= x_d) is 2^nz(r)
    times the sum of s over the distinct permutations of r, and the full
    table is not built.

    s is a polynomial, even in every coordinate (each u_e is even or odd
    in each), and of degree at most 2m in each coordinate, with m the
    largest exponent of any one coordinate in P.  So is its symmetrization
    sigma = sum_(pi in S_d) s o pi, which is symmetric as well.  The
    permutations fixing r number d! 2^nz(r) / size(r), so the orbit sum
    of r is exactly sigma(r) size(r) / d!.  When d m <= R, every line
    through x' in [0..m]^(d-1) reaches z = m (R - |x'|_1 >= m) and reads
    all its seeds, so s is read on the box [0..m]^d from those lines
    alone (:func:`_box_squares`), and :func:`_symmetric_squares` extends
    sigma from there, one axis at a time, to every representative of
    B_N.

    Any other polynomial table runs its lines on the orthant of B_N, one
    line of each component at a time (:func:`harmlat.lattice._line_runs`),
    and adds the components' summed squares straight into the sums of
    the cells' orbits, each orbit's sum then taken 2^nz times.  Every
    other table, one whose full values are built included, has each
    cell's square scattered.  On every route den is the table's own, and
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
    parts, remaining, den, m = u._orthant
    if u.d * m <= u.R:
        sizes = map(mul, _symmetric_squares(u, N), tab.sizes)
        return list(map(floordiv, sizes, repeat(math.factorial(u.d)))), den
    cells = iter(balls.point_orbit_indices(u.d, N, True))
    for lines in zip(*(_line_runs(seeds, remaining, u.R - N) for _, seeds in parts)):
        squares = None
        for n, line_seeds in lines:
            values = list(islice(_line(line_seeds), n))
            square = map(mul, values, values)
            squares = square if squares is None else map(add, squares, square)
        # squares first: zip stops at the line's end without taking a cell
        for sq, oi in zip(squares, cells):
            sums[oi] += sq
    zeros = map(tuple.count, tab.reps, repeat(0))
    sums = list(map(lshift, sums, map(sub, repeat(u.d), zeros)))
    return sums, den


def _symmetric_squares(u: LatticeFunction, N: int) -> list:
    """sigma = sum_(pi in S_d) s o pi at every representative of B_N, in the orbit table's order.

    s = sum_e u_e^2 over the parity components of a polynomial's table
    with d m <= R (see :func:`_orbit_square_sums`).  s is read on the box
    [0..m]^d and symmetrized there: the sum of s over the permutations of
    a box point x, each counted once, times the permutations fixing x.
    Then sigma is extended from axis d down to axis 1.  Before stage k,
    sigma is known at (p, x_k, t) for every prefix p in [0..m]^(k-1),
    every box value x_k = 0..m and every sorted tail
    t = (x_(k+1) <= ... <= x_d) reached so far.  Along axis k it is an even
    polynomial of degree <= 2m, so stage k runs it as a line from those
    m + 1 values (:func:`_even_lines`) up to
    x_k <= min(x_(k+1), N - |t|_1), and each x_k reached makes the sorted
    tail (x_k, t) of the next stage.  After stage 1 the tails are the
    representatives of B_N, each reached once.  Each tail carries the
    orbit index of (0, ..., 0, t), and the orbit table's column of the
    step +e_k takes (0, ..., 0, x_k, t) to (0, ..., 0, x_k + 1, t), a
    representative too while x_k < x_(k+1); so sigma is written into the
    orbit slots with no point looked up.
    """
    d, width = u.d, u._orthant[3] + 1
    heads = _box_squares(u._orthant[0], _box_lines(d - 1, u.R, width - 1), width)
    keys = list(map(tuple, map(sorted, product(range(width), repeat=d))))
    totals = dict.fromkeys(keys, 0)
    for key, square in zip(keys, chain.from_iterable(zip(*heads))):  # s on the box, lex order
        totals[key] += square
    for key in totals:
        totals[key] *= math.prod(map(math.factorial, Counter(key).values()))
    sigma = list(map(totals.__getitem__, keys))
    tab = balls.orbit_table(d, N)
    # per tail t = (x_(k+1), ..., x_d): x_(k+1) (N for the empty tail),
    # N - |t|_1, and the orbit index of the representative (0, ..., 0, t)
    firsts, rests, slots = [N], [N], [0]
    cols = [sigma[j::width] for j in range(width)]
    for k in range(d, 0, -1):
        # each tail's entries, one per prefix, in lex order with x_(k-1) fastest
        per = len(cols[0]) // len(slots)
        ends = list(map(min, firsts, rests))
        # longest lines first: the lines still running are always a prefix
        order = sorted(range(len(ends)), key=ends.__getitem__, reverse=True)
        at = [i * per + p for i in order for p in range(per)]
        cols = [list(map(col.__getitem__, at)) for col in cols]
        ends, rests, slots = ([v[i] for i in order] for v in (ends, rests, slots))
        counts, reaching = [], len(ends)
        for z in range(ends[0] + 1):
            while ends[reaching - 1] < z:
                reaching -= 1
            counts.append(reaching * per)
        step = tab.cols[2 * k - 2].__getitem__  # + e_k, from x_k = z to z + 1
        firsts, next_rests, next_slots = [], [], []
        out = [[] for _ in range(width if k > 1 else 1)]
        for z, values in enumerate(_even_lines(cols, counts)):
            n = len(values) // per
            slots = slots[:n] if z == 0 else list(map(step, slots[:n]))
            firsts += repeat(z, n)
            next_rests += map(sub, rests[:n], repeat(z))
            next_slots += slots
            for j, col in enumerate(out):  # x_(k-1) = j: the next stage's box values
                col += values[j :: len(out)]
        rests, slots, cols = next_rests, next_slots, out
    at_slot = dict(zip(slots, cols[0]))
    return list(map(at_slot.__getitem__, range(len(slots))))


def _box_lines(k: int, R: int, m: int) -> list:
    """Positions of the points of [0..m]^k, in lex order, among those of the orthant of B_R of Z^k.

    In lex order the orthant of B_R of Z^k is the blocks {v} x (the
    orthant of B_(R-v) of Z^(k-1)), v = 0..R, each counted in closed form;
    m <= R is assumed for k >= 1.
    """
    if k == 0:
        return [0]
    out, start = [], 0
    for v in range(m + 1):
        out += map(add, _box_lines(k - 1, R - v, m), repeat(start))
        start += math.comb(R - v + k - 1, k - 1)
    return out


def _box_squares(parts: list, positions: list, count: int) -> list:
    """s = sum_e u_e^2 at z = 0..count - 1 of the lines at ``positions``, one list per z.

    Each component's seeds of those lines are gathered by index, and each
    pass sums adjacent orders over all of them at once (Pascal's rule,
    Delta^j f(z + 1) = Delta^j f(z) + Delta^(j+1) f(z)), only as far as a
    later value reads.  Every line must reach z = count - 1 and read all
    its seeds.
    """
    heads = [[0] * len(positions) for _ in range(count)]
    for _, seeds in parts:
        orders = [list(map(order.__getitem__, positions)) for order in seeds]
        for z in range(count):
            heads[z] = list(map(add, heads[z], map(mul, orders[0], orders[0])))
            for j in range(min(len(orders) - 1, count - 1 - z)):
                orders[j] = list(map(add, orders[j], orders[j + 1]))
    return heads


def _even_lines(heads: list, counts: list):
    """Values at z = 0, 1, ... of even polynomials of degree <= 2m, given at z = 0..m.

    ``heads[j]`` holds every line's value at z = j, with m = len(heads) - 1;
    the lines are in order of decreasing length, and the first counts[z]
    of them reach z.  Yields, for z = 0..len(counts) - 1, the values of
    those lines at z: up to z = m the heads themselves.  Mirrored to
    z = -m..m, the values fix each line, so the lines that reach past m
    run on from their backward differences at z = m, taken column by
    column: each step is one pass per order over all of them, from the
    highest order down (nabla^j f(z + 1) = nabla^j f(z) + nabla^(j+1) f(z + 1)),
    and a line that ends is cut from the highest order, which every
    lower one then stops at.
    """
    m, last = len(heads) - 1, len(counts) - 1
    for z in range(min(m, last) + 1):
        yield heads[z][: counts[z]]
    if last <= m:
        return
    reaching = [values[: counts[m + 1]] for values in heads]
    row, orders = reaching[:0:-1] + reaching, []
    while row:
        orders.append(row[-1])
        row = [list(map(sub, b, a)) for a, b in zip(row, row[1:])]
    for z in range(m + 1, last + 1):
        orders[-1] = orders[-1][: counts[z]]
        for j in range(len(orders) - 2, -1, -1):
            orders[j] = list(map(add, orders[j], orders[j + 1]))
        yield orders[0]


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
