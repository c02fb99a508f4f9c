"""Sparse exact row echelon in pure Python over a ``Field``: the one
elimination loop, ``Echelon.absorb``, and ``row_echelon``, a pass of it.

Rows are pairs ``[cols, vals]`` with ``cols`` strictly increasing and
``vals`` nonzero.  An ``Echelon`` stores at most one row per lead (first
column) below its ``limit``; columns from ``limit`` on ride along.  Pivot
rule: a row that hits a stored lead is reduced by the stored row, unless it
has fewer nonzeros, in which case it takes the lead and the stored row is
reduced instead (the stored one stays on a tie).  Either way the span and
the leads reached are the same, so pivots, normalized RREF rows and the
columns ``image_basis`` keeps do not depend on the rule.

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
each stored row has lead one.
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


class Echelon:
    """Rows absorbed one at a time, each stored reduced under its lead below
    ``limit`` (see the module docstring for the row format and the pivot
    rule).  With no column at or past ``limit``, the echelon grows exactly
    when a row is independent of the rows before it, so absorbing the
    columns of a matrix as rows keeps its pivot columns, the column rank
    profile rule (Dumas, Pernet and Sultan, ISSAC 2015).  Stored rows are
    never mutated, so an ``Echelon`` built on another's ``leads`` shares
    them."""

    __slots__ = ("ops", "limit", "leads")

    def __init__(self, ops, limit, leads=()):
        self.ops, self.limit, self.leads = ops, limit, dict(leads)

    def absorb(self, cols, vals):
        """Reduce the row ``(cols, vals)`` at each stored lead it hits.  None
        when a row takes a new lead below ``limit`` (the echelon grew by one);
        otherwise what is left: an empty row, or one whose lead is at or past
        ``limit``.  The row's lists are stored as given when they need no
        reduction, so the caller must not mutate them afterwards."""
        ops, leads, limit = self.ops, self.leads, self.limit
        rational = ops.kind == "rationals"
        if rational:
            vals = _primitive(vals)
        while cols and cols[0] < limit:
            hit = leads.get(cols[0])
            if hit is None or len(cols) < len(hit[0]):
                if not rational:
                    lead_inv, mul = ops.inv(vals[0]), ops.mul
                    vals = [mul(lead_inv, v) for v in vals]
                leads[cols[0]] = cols, vals
                if hit is None:
                    return None
                # the sparser row took the lead: reduce the one it displaced
                (cols, vals), hit = hit, (cols, vals)
            if rational:
                cols, vals = _axpy_int(cols, vals, vals[0], *hit, ops)
            else:  # the stored lead is one and cancels: reduce the tails
                hc, hv = hit
                cols, vals = _axpy(cols[1:], vals[1:], vals[0], hc[1:], hv[1:], ops)
        return cols, vals


def row_echelon(rows, limit, ops, reduced=True):
    """Absorb sparse rows into one ``Echelon(ops, limit)``, pivot columns below
    ``limit`` (columns >= limit ride along, e.g. augmented parts), and, if
    ``reduced``, eliminate each pivot from the echelon rows above it.

    Returns ``(pivots, erows, residual)``: pivot columns in increasing order,
    the corresponding echelon rows, and the nonzero rows left with no
    support below ``limit``.  Over Q the rows in are integer rows, and so
    are the rows out (see the module docstring): each echelon row is
    primitive and keeps its lead, so row / lead is the normalized row, and
    each residual row is primitive.  Over Q(zeta_M) the echelon rows are
    normalized.
    """
    E = Echelon(ops, limit)
    residual = []
    for cols, vals in rows:
        rest = E.absorb(cols, vals)
        if rest is not None and rest[0]:
            residual.append(rest)
    pivots = sorted(E.leads)
    erows = [E.leads[c] for c in pivots]

    if reduced:
        step = _axpy_int if ops.kind == "rationals" else _axpy
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
