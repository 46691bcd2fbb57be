"""Evidence pipeline for the sharp-error-term conjecture.

Reads exact Q(n), Q(2n), Q(4n) from the growth polynomial of the
discretized planar harmonics (and related families) on Z^2 and scans
the residual

    (Q(2n) - C sqrt(Q(n) Q(4n))) / Q(4n)

against the conjectured error bound 2^(-n^(1/2+eps)).  A row encloses
that bound once, at the precision cap, and decides the violation on it
by the status rule the search's verdicts apply at their cap rung, handed
the products bound Q(4n) and C^2 Q(n) Q(4n) as unreduced integer pairs.
Absence of violations in a finite window says nothing against the
conjecture, which only asserts the existence of some n beyond every n0
for large enough k; the scan summary states this explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .checks import DEFAULT_PRECISION, FAILS, UNDECIDED, _pair, _sum_status, _times, k2_over_ln_k_floors
from .enclosure import RealEnclosure, enclose_pow, sqrt_enclosure
from .errors import InvalidParameterError
from .growth import growth_polynomial
from .polynomials import family_polynomial
from .rationals import format_rational

SCAN_CSV_HEADER = (
    "n,Q_n,Q_2n,Q_4n,ratio_num,ratio_den,"
    "residual_lo,residual_hi,bound_lo,bound_hi,violation"
)


@dataclass(frozen=True)
class ScanRow:
    """One scanned step count with its exact and enclosed quantities."""

    n: int
    q_n: Fraction
    q_2n: Fraction
    q_4n: Fraction
    ratio: Optional[Fraction]  # Q(2n)^2 / (Q(n) Q(4n)); None when Q(n) or Q(4n) is 0
    residual: RealEnclosure    # (Q(2n) - C sqrt(Q(n)Q(4n))) / Q(4n)
    bound: RealEnclosure       # 2^(-n^(1/2+eps))
    violation: Optional[bool]  # None = undecided at the precision cap

    def csv_fields(self) -> list:
        ratio_num = str(self.ratio.numerator) if self.ratio is not None else ""
        ratio_den = str(self.ratio.denominator) if self.ratio is not None else ""
        if self.violation is None:
            v = "?"
        else:
            v = "1" if self.violation else "0"
        return [
            str(self.n),
            format_rational(self.q_n),
            format_rational(self.q_2n),
            format_rational(self.q_4n),
            ratio_num,
            ratio_den,
            format_rational(self.residual.lo),
            format_rational(self.residual.hi),
            format_rational(self.bound.lo),
            format_rational(self.bound.hi),
            v,
        ]


@dataclass(frozen=True)
class ScanResult:
    k: int
    C: Fraction
    eps: Fraction
    family: str
    rows: tuple
    summary: dict

    def to_csv(self) -> str:
        lines = [SCAN_CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(row.csv_fields()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "kind": "conjecture_scan",
            "k": self.k,
            "C": format_rational(self.C),
            "eps": format_rational(self.eps),
            "family": self.family,
            "rows": [
                dict(zip(SCAN_CSV_HEADER.split(","), row.csv_fields())) for row in self.rows
            ],
            "summary": self.summary,
        }


def _scan_row(growth, n, C, eps, precision) -> ScanRow:
    q_n, q_2n, q_4n = growth.Q(n), growth.Q(2 * n), growth.Q(4 * n)
    ratio = None if q_n == 0 or q_4n == 0 else q_2n * q_2n / (q_n * q_4n)
    bound = enclose_pow(2, n, Fraction(1, 2) + eps, precision)
    if q_4n == 0:
        residual = RealEnclosure.exact(0)
        violation: Optional[bool] = False
    else:
        root = sqrt_enclosure(q_n * q_4n, precision)
        # C > 0 and Q(4n) > 0, so each end of the residual takes the other end of the root
        residual = RealEnclosure((q_2n - C * root.hi) / q_4n, (q_2n - C * root.lo) / q_4n)
        # the violation is the negated sum form, decided as at the check's cap rung
        msq = _pair(C, C, q_n, q_4n)
        status = _sum_status(q_2n, (msq, msq), _times(bound, _pair(q_4n)))
        violation = None if status == UNDECIDED else status == FAILS
    return ScanRow(n, q_n, q_2n, q_4n, ratio, residual, bound, violation)


def default_window(k: int) -> tuple:
    """Scan window centered at k^2 / ln k with radius k."""
    if k < 2:
        raise InvalidParameterError(
            "no default window below k = 2 (ln k vanishes); pass the range explicitly"
        )
    lo_f, hi_f = k2_over_ln_k_floors(k)
    center = (lo_f + hi_f) // 2
    return max(1, center - k), center + k


def conjecture_scan(
    k: int,
    C,
    eps,
    n_from: Optional[int] = None,
    n_to: Optional[int] = None,
    precision: int = DEFAULT_PRECISION,
    family: str = "S",
    d: Optional[int] = None,
) -> ScanResult:
    """Scan n in [n_from, n_to] for violations of the C-bound on a family member.

    An omitted range defaults to the window of radius k centered at
    k^2 / ln k.  An empty range checks nothing and is refused.  Rows are
    ordered by n.  Q is summed only at the scanned n, 2n and 4n, from the
    member's :class:`harmlat.growth.GrowthPolynomial`.
    """
    C = Fraction(C)
    eps = Fraction(eps)
    if C <= 0 or eps <= 0:
        raise InvalidParameterError("need C > 0 and eps > 0")
    if n_from is None or n_to is None:
        lo, hi = default_window(k)
        n_from = lo if n_from is None else n_from
        n_to = hi if n_to is None else n_to
    ns = range(max(1, n_from), n_to + 1)
    if not ns:
        raise InvalidParameterError(f"empty n range: n_to={n_to} is below n_from={ns.start}")
    growth = growth_polynomial(family_polynomial(family, k, d, n_max=4 * n_to), 4 * n_to)
    rows = [_scan_row(growth, n, C, eps, precision) for n in ns]
    violations = sum(1 for r in rows if r.violation)
    undecided = sum(1 for r in rows if r.violation is None)
    max_residual = max(r.residual.hi for r in rows)
    summary = {
        "rows": len(rows),
        "violations": violations,
        "undecided": undecided,
        "max_residual_hi": format_rational(max_residual),
        "note": (
            "violations certified in this window"
            if violations
            else "no violation in this finite window; the conjecture asserts existence of "
            "some n beyond every n0 for k large, so this is not evidence against it"
        ),
    }
    return ScanResult(k, C, eps, family, tuple(rows), summary)
