"""Sparse exact row-echelon kernel, in pure Python over a ``Field``.

Rows are pairs ``[cols, vals]`` with ``cols`` strictly increasing and
``vals`` nonzero.  Pivoting: smallest column index first, then the row with
fewest nonzeros, then first-come (deterministic).

Over Q rows in and out are integer rows, and no rational is built.  An input
row is any nonzero multiple of a matrix row, such as its numerators over a
common denominator (``ExactMatrix.rows_sparse``); it is divided by its
content.  The elimination is fraction-free (Bareiss 1968; Geddes, Czapor and
Labahn 1992, ch. 9): a step a' = (p/g) a - (c/g) b with g = gcd(p, c)
cancels the entry c of a at the pivot column of b against the lead p of b,
and the result is divided by its content; back-substitution takes the same
step.  Every integer row is a nonzero multiple of the row the scalar path
builds at the same step, so supports, pivot order and pivots agree, and an
echelon row divided by its lead is the scalar path's normalized row.  Over
Q(zeta_M) the elimination runs on the field's bound scalar operations, and
each echelon row has lead one.
"""

from bisect import bisect_left
from math import gcd


def _axpy(cols_a, vals_a, f, cols_b, vals_b, ops):
    """a - f * b as a sparse merge, for f nonzero; returns (cols, vals).  An
    entry of b alone gives (-f) * b[j], which is never zero."""
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    g = ops.neg(f)
    out_c, out_v = [], []
    i = j = 0
    na, nb = len(cols_a), len(cols_b)
    while i < na and j < nb:
        ca, cb = cols_a[i], cols_b[j]
        if ca < cb:
            out_c.append(ca)
            out_v.append(vals_a[i])
            i += 1
        elif ca > cb:
            out_c.append(cb)
            out_v.append(mul(g, vals_b[j]))
            j += 1
        else:
            v = add(vals_a[i], mul(g, vals_b[j]))
            if not is_zero(v):
                out_c.append(ca)
                out_v.append(v)
            i += 1
            j += 1
    out_c += cols_a[i:]
    out_v += vals_a[i:]
    out_c += cols_b[j:]
    out_v += [mul(g, v) for v in vals_b[j:]]
    return out_c, out_v


def _axpy_int(cols_a, vals_a, c, cols_b, vals_b, _ops):
    """(p/g) a - (c/g) b for integer rows a and b, the lead p of b, the entry
    c of a at b's pivot column and g = gcd(p, c), as a sparse merge divided
    by its content; returns (cols, vals).  The signature is ``_axpy``'s."""
    p = vals_b[0]
    g = gcd(p, c)
    s, t = p // g, c // g
    out_c, out_v = [], []
    i = j = 0
    na, nb = len(cols_a), len(cols_b)
    while i < na and j < nb:
        ca, cb = cols_a[i], cols_b[j]
        if ca < cb:
            out_c.append(ca)
            out_v.append(s * vals_a[i])
            i += 1
        elif ca > cb:
            out_c.append(cb)
            out_v.append(-t * vals_b[j])
            j += 1
        else:
            v = s * vals_a[i] - t * vals_b[j]
            if v:
                out_c.append(ca)
                out_v.append(v)
            i += 1
            j += 1
    out_c += cols_a[i:]
    out_v += [s * v for v in vals_a[i:]]
    out_c += cols_b[j:]
    out_v += [-t * v for v in vals_b[j:]]
    g = gcd(*out_v)
    if g > 1:
        out_v = [v // g for v in out_v]
    return out_c, out_v


def _primitive(vals):
    """Integer ``vals`` divided by their content: the primitive row of the
    same support and signs."""
    g = gcd(*vals)
    return [v // g for v in vals] if g > 1 else vals


def row_echelon(rows, limit, ops, reduced=True):
    """Reduce sparse rows in place of a matrix whose pivot columns must lie
    below ``limit`` (columns >= limit ride along, e.g. augmented parts),
    with the scalar operations of the ``Field`` ``ops``.

    Returns ``(pivots, erows, residual)``: pivot columns in increasing order,
    the corresponding echelon rows, and rows with no support below ``limit``.
    Over Q the rows in are integer rows, and so are the rows out (see the
    module docstring): each echelon row is primitive and keeps its lead, so
    row / lead is the normalized row, and each residual row is primitive, a
    nonzero multiple of the row the scalar path leaves.  Over Q(zeta_M) the
    echelon rows are normalized.
    """
    rational = ops.kind == "rationals"
    buckets = {}
    residual = []
    serial = 0

    def insert(cols, vals):
        nonlocal serial
        if not cols:
            return
        if cols[0] >= limit:
            residual.append((cols, vals))
            return
        buckets.setdefault(cols[0], []).append((serial, cols, vals))
        serial += 1

    for cols, vals in rows:
        if cols:
            insert(list(cols), _primitive(vals) if rational else list(vals))

    step = _axpy_int if rational else _axpy
    mul = ops.mul
    pivots, erows = [], []
    while buckets:
        c = min(buckets)
        group = buckets.pop(c)
        group.sort(key=lambda t: (len(t[1]), t[0]))
        _, pc, pv = group[0]
        if not rational:
            piv_inv = ops.inv(pv[0])
            pv = [mul(piv_inv, v) for v in pv]
        pivots.append(c)
        erows.append((pc, pv))
        for _, rc, rv in group[1:]:
            insert(*step(rc, rv, rv[0], pc, pv, ops))

    if reduced:
        # eliminate each pivot from all earlier echelon rows
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            pc, pv = erows[k]
            for j in range(k):
                rc, rv = erows[j]
                lo = bisect_left(rc, c)
                if lo < len(rc) and rc[lo] == c:
                    erows[j] = step(rc, rv, rv[lo], pc, pv, ops)

    return pivots, erows, residual
