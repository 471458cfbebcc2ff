"""Exact linear feasibility via a max-slack simplex.

{x : a_i·x <= b_i} is nonempty iff the linear program

    maximize s  subject to  a_i·x + s <= b_i,  s <= 1

has an optimum with s >= 0; its optimal x is the witness, a point with the
largest common slack (capped at 1).  The program runs on a condensed (Tucker)
tableau over rationals with nonnegative variables x = u - v, s = 1 - w0 and
row slacks w_i.  One pivot of w0 on the row with the most negative b_i - 1
makes the starting basis feasible, so no phase-I artificials are needed;
Bland's rule (smallest label enters, ratio ties leave by smallest label)
rules out cycling.  Rows are scaled to primitive integers first.
"""
from __future__ import annotations

from fractions import Fraction

from .geometry import as_fraction, dot, primitive_direction


def _pivot(rows: list[list[Fraction]], r: int, k: int) -> None:
    """Exchange the basic variable of row r with the nonbasic one of column k.

    Each row holds [constant, coefficient per nonbasic column] of the
    dictionary basic = constant + sum(coefficient * nonbasic).
    """
    p = rows[r][k]
    new = [-c / p if c else c for c in rows[r]]
    new[k] = 1 / p
    rows[r] = new
    for i, row in enumerate(rows):
        f = row[k]
        if i != r and f:
            rows[i] = [c + f * e if e else c for c, e in zip(row, new)]
            rows[i][k] = f * new[k]


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
    rows = [[Fraction(bi - 1)] + [Fraction(-c) for c in ai] + [Fraction(c) for c in ai]
            + [Fraction(1)] for ai, bi in zip(a, b)]
    rows.append([Fraction(0)] * (2 * n + 1) + [Fraction(-1)])  # objective -w0
    if b and min(b) < 1:
        r = b.index(min(b))
        _pivot(rows, r, 2 * n + 1)
        basic[r], nonbasic[2 * n] = nonbasic[2 * n], basic[r]
    while True:
        entering = [k for k in range(1, 2 * n + 2) if rows[-1][k] > 0]
        if not entering:
            break
        k = min(entering, key=lambda j: nonbasic[j - 1])
        # w0 >= 0 keeps s bounded, so some row always limits the entering variable
        r = min((i for i in range(len(basic)) if rows[i][k] < 0),
                key=lambda i: (rows[i][0] / -rows[i][k], basic[i]))
        _pivot(rows, r, k)
        basic[r], nonbasic[k - 1] = nonbasic[k - 1], basic[r]
    if rows[-1][0] < -1:  # s = 1 - w0 < 0
        return None

    uv = [Fraction(0)] * (2 * n)
    for label, row in zip(basic, rows):
        if label < 2 * n:
            uv[label] = row[0]
    x = tuple(u - v for u, v in zip(uv[:n], uv[n:]))
    for i, (coeffs, rhs) in enumerate(system):
        if dot(coeffs, x) > rhs:
            raise RuntimeError(f"simplex witness {x} violates inequality {i}")
    return x
