"""Sparse exact row-echelon kernel, in pure Python over a ``Field``.

Rows are pairs ``[cols, vals]`` with ``cols`` strictly increasing and
``vals`` nonzero.  Pivoting: smallest column index first, then the row with
fewest nonzeros, then first-come (deterministic).
"""

from bisect import bisect_left


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


def row_echelon(rows, limit, ops, reduced=True):
    """Reduce sparse rows in place of a matrix whose pivot columns must lie
    below ``limit`` (columns >= limit ride along, e.g. augmented parts),
    with the scalar operations of the ``Field`` ``ops``.

    Returns ``(pivots, erows, residual)``: pivot columns in increasing order,
    the corresponding normalized echelon rows, and rows with no support below
    ``limit``.
    """
    mul = ops.mul
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
        insert(list(cols), list(vals))

    pivots, erows = [], []
    while buckets:
        c = min(buckets)
        group = buckets.pop(c)
        group.sort(key=lambda t: (len(t[1]), t[0]))
        _, pc, pv = group[0]
        piv_inv = ops.inv(pv[0])
        pv = [mul(piv_inv, v) for v in pv]
        pivots.append(c)
        erows.append((pc, pv))
        for _, rc, rv in group[1:]:
            nc, nv = _axpy(rc, rv, rv[0], pc, pv, ops)
            insert(nc, nv)

    if reduced:
        # eliminate each pivot from all earlier echelon rows
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            pc, pv = erows[k]
            for j in range(k):
                rc, rv = erows[j]
                lo = bisect_left(rc, c)
                if lo < len(rc) and rc[lo] == c:
                    erows[j] = _axpy(rc, rv, rv[lo], pc, pv, ops)

    return pivots, erows, residual
