"""Exact linear feasibility via a max-slack simplex.

{x : a_i·x <= b_i} is nonempty iff the linear program

    maximize s  subject to  a_i·x + s <= b_i,  s <= 1

has an optimum with s >= 0; its optimal x is the witness, a point with the
largest common slack (capped at 1).  The program runs on a condensed (Tucker)
tableau with nonnegative variables x = u - v, s = 1 - w0 and row slacks w_i.
One pivot of w0 on the row with the most negative b_i - 1 makes the starting
basis feasible, so no phase-I artificials are needed; Bland's rule (smallest
label enters, ratio ties leave by smallest label) rules out cycling.

Rows are scaled to primitive integers first.  The tableau holds integers
over one positive common denominator, and each exchange is the fraction-free
pivot of :func:`geometry.exchange`, so only the witness is a rational.
"""
from __future__ import annotations

from fractions import Fraction

from .geometry import as_fraction, dot, exchange, primitive_direction


def feasible_point(inequalities, n: int) -> tuple[Fraction, ...] | None:
    """Exact witness for {x : coeffs_i . x <= rhs_i}, or None when empty.

    `inequalities` is an iterable of (coefficient sequence, rhs).  A row with
    all-zero coefficients is dropped, or empties the system when rhs < 0.  The
    witness is re-checked exactly against every input row before it is
    returned; a violation is an internal error (RuntimeError).
    """
    system = [(tuple(as_fraction(c) for c in coeffs), as_fraction(rhs))
              for coeffs, rhs in inequalities]
    if any(len(coeffs) != n for coeffs, _ in system):
        raise ValueError("inequality arity does not match dimension")
    a, b = [], []
    for coeffs, rhs in system:
        if not any(coeffs):
            if rhs < 0:
                return None
            continue
        *ints, r = primitive_direction(coeffs + (rhs,))
        a.append(ints)
        b.append(r)

    # columns: constant, u_0..u_{n-1}, v_0..v_{n-1}, w0; labels follow that
    # order and the row slacks w_i come after them
    nonbasic = list(range(2 * n + 1))
    basic = [2 * n + 1 + i for i in range(len(a))]
    rows = [[bi - 1] + [-c for c in ai] + ai + [1] for ai, bi in zip(a, b)]
    rows.append([0] * (2 * n + 1) + [-1])  # objective -w0
    r, k = (b.index(min(b)), 2 * n + 1) if b and min(b) < 1 else (None, None)
    den = 1  # the tableau is rows / den
    while True:
        if r is not None:
            # exchange zeroes column k; the Tucker step keeps it over the new
            # denominator p and turns the pivot row into -row, with den at k
            column, pivot_row = [row[k] for row in rows], rows[r]
            p = exchange(rows, r, k, den)
            rows[r] = [-c for c in pivot_row]
            for row, c in zip(rows, column):
                row[k] = c
            rows[r][k] = den
            if p < 0:
                rows[:] = [[-c for c in row] for row in rows]
            den = abs(p)
            basic[r], nonbasic[k - 1] = nonbasic[k - 1], basic[r]
        entering = [(nonbasic[j - 1], j) for j in range(1, 2 * n + 2) if rows[-1][j] > 0]
        if not entering:
            break
        k = min(entering)[1]
        # w0 >= 0 keeps s bounded, so some row always limits the entering
        # variable; ratios rows[i][0] / -rows[i][k] compare crosswise
        r = None
        for i in range(len(basic)):
            if rows[i][k] < 0 and (r is None or (rows[r][0] * rows[i][k], basic[i])
                                   < (rows[i][0] * rows[r][k], basic[r])):
                r = i
    if rows[-1][0] < -den:  # s = 1 - w0 < 0
        return None

    uv = [0] * (2 * n)
    for label, row in zip(basic, rows):
        if label < 2 * n:
            uv[label] = row[0]
    x = tuple(Fraction(u - v, den) for u, v in zip(uv[:n], uv[n:]))
    for i, (coeffs, rhs) in enumerate(system):
        if dot(coeffs, x) > rhs:
            raise RuntimeError(f"simplex witness {x} violates inequality {i}")
    return x
