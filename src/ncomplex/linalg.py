"""Exact sparse linear algebra over a Field: Kronecker products and block
placement, rank, kernel/image bases, solving, subspaces and quotients with
deterministic representative choices."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import lcm

from . import kernel
from .kernel import Echelon
from .fields import Field, check_keys, rat


class ExactMatrix:
    """Sparse matrix; stored entries are nonzero.

    Entries must not be mutated after construction: the matrix keeps one
    cache, ``split_columns``, its entries as integer numerators over one
    common denominator D, by column.  Products and kernel rows over Q,
    ``apply`` and the solvers read it, so a matrix is split at most once."""

    __slots__ = ("nrows", "ncols", "field", "entries", "_split")

    def __init__(self, nrows, ncols, field, entries=None, _clean=True):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        if entries is None:
            entries = {}
        if _clean:
            entries = {
                rc: v for rc, v in entries.items() if not field.is_zero(v)
            }
        self.entries = entries
        self._split = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(nrows, ncols, field):
        return ExactMatrix(nrows, ncols, field, {}, _clean=False)

    @staticmethod
    def identity(n, field):
        one = field.one
        return ExactMatrix(n, n, field, {(i, i): one for i in range(n)}, _clean=False)

    @staticmethod
    def from_rows(rows, field, ncols=None):
        """rows: list of lists of scalars."""
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not field.is_zero(v):
                    ent[(i, j)] = v
        return ExactMatrix(nrows, ncols, field, ent, _clean=False)

    @staticmethod
    def from_columns(cols, nrows, field):
        """cols: list of sparse dicts {row: scalar}."""
        ent = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not field.is_zero(v):
                    ent[(i, j)] = v
        return ExactMatrix(nrows, len(cols), field, ent, _clean=False)

    # -- basic inspection --------------------------------------------------

    def __getitem__(self, rc):
        return self.entries.get(rc, self.field.zero)

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def split_columns(self):
        """``(columns, D)``: the columns as flat lists
        ``{col: [row, numerator, row, numerator, ...]}`` over one common
        denominator D (see ``Field.split``), cached."""
        if self._split is None:
            nums, D = self.field.split(list(self.entries.values()))
            self._split = _flat_columns(self.entries, nums), D
        return self._split

    def rows_sparse(self):
        """Rows as (sorted cols, vals) pairs, for the kernel: over Q the
        integer rows of ``split_columns`` (D times the rows of the matrix),
        over Q(zeta_M) the scalar rows."""
        if self.field.kind == "rationals":
            cols = self.split_columns()[0]
        else:
            cols = _flat_columns(self.entries, self.entries.values())
        rows = [([], []) for _ in range(self.nrows)]
        for c in sorted(cols):
            it = iter(cols[c])
            for r, v in zip(it, it):
                rows[r][0].append(c)
                rows[r][1].append(v)
        return rows

    def is_zero(self):
        return not self.entries

    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} + "
                f"{other.nrows}x{other.ncols}"
            )
        f = self.field
        accumulate = f.accumulate
        ent = dict(self.entries)
        for rc, v in other.entries.items():
            accumulate(ent, rc, v)
        return ExactMatrix(self.nrows, self.ncols, f, ent, _clean=False)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, s):
        f = self.field
        if f.is_zero(s):
            return ExactMatrix.zeros(self.nrows, self.ncols, f)
        mul = f.mul
        return ExactMatrix(
            self.nrows,
            self.ncols,
            f,
            {rc: mul(s, v) for rc, v in self.entries.items()},
            _clean=False,
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ "
                f"{other.nrows}x{other.ncols}"
            )
        f = self.field
        if f.kind == "rationals":
            return _matmul_rational(self, other)
        add, mul = f.add, f.mul
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        ent = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                rc = (r, c)
                t = mul(a, b)
                ent[rc] = add(ent[rc], t) if rc in ent else t
        return ExactMatrix(self.nrows, other.ncols, f, ent)

    def power(self, k):
        """self^k; the identity only for k = 0, so k >= 1 costs k - 1 products."""
        if self.nrows != self.ncols:
            raise ValueError(f"power of a non-square {self.nrows}x{self.ncols} matrix")
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        if k == 0:
            return ExactMatrix.identity(self.nrows, self.field)
        acc = self
        for _ in range(k - 1):
            acc = acc @ self
        return acc

    def transpose(self):
        return ExactMatrix(
            self.ncols,
            self.nrows,
            self.field,
            {(c, r): v for (r, c), v in self.entries.items()},
            _clean=False,
        )

    def apply(self, vec):
        """Matrix times sparse column vector {index: scalar}."""
        f = self.field
        out, D = self.apply_split(*_split_vector(vec, f))
        return {r: f.join(n, D) for r, n in out.items() if not f.is_zero(n)}

    def apply_split(self, xs, D):
        """``apply`` on numerators: xs is ``{index: numerator}`` over D, and
        the result is ``({row: numerator}, D_out)``, with entries that cancel
        to zero kept."""
        cols, DM = self.split_columns()
        return _apply_columns(cols, xs, self.field), D * DM

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError(f"hstack of {self.nrows} and {other.nrows} rows")
        ent = dict(self.entries)
        off = self.ncols
        for (r, c), v in other.entries.items():
            ent[(r, c + off)] = v
        return ExactMatrix(self.nrows, off + other.ncols, self.field, ent, _clean=False)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError(f"vstack of {self.ncols} and {other.ncols} columns")
        ent = dict(self.entries)
        off = self.nrows
        for (r, c), v in other.entries.items():
            ent[(r + off, c)] = v
        return ExactMatrix(off + other.nrows, self.ncols, self.field, ent, _clean=False)

    def take_columns(self, js):
        ent = {}
        pos = {j: k for k, j in enumerate(js)}
        for (r, c), v in self.entries.items():
            if c in pos:
                ent[(r, pos[c])] = v
        return ExactMatrix(self.nrows, len(js), self.field, ent, _clean=False)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        items = sorted(self.entries.items())
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "field": self.field.to_json(),
            "entries": [[r, c, self.field.to_str(v)] for (r, c), v in items],
        }

    @staticmethod
    def from_json(obj, field=None):
        if not isinstance(obj, dict):
            raise ValueError("a matrix must be a JSON object")
        check_keys(obj, "a matrix", (), ("rows", "cols", "field", "entries"))
        f = field
        if field is None or "field" in obj:
            f = Field.from_json(obj.get("field"))
            if field is not None and f != field:
                raise ValueError(f"a matrix over {f!r} in an object over {field!r}")
        shape = obj.get("rows"), obj.get("cols")
        for name, n in zip(("rows", "cols"), shape):
            if not _is_index(n):
                raise ValueError(f"matrix {name} must be a non-negative int, got {n!r}")
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise ValueError("matrix entries must be a list of [row, col, scalar]")
        ent = {}
        for e in entries:
            if not (
                isinstance(e, list)
                and len(e) == 3
                and _is_index(e[0], shape[0])
                and _is_index(e[1], shape[1])
                and isinstance(e[2], str)
            ):
                raise ValueError(
                    f"matrix entry {e!r} is not an in-bounds [row, col, scalar] "
                    f"triple of a {shape[0]}x{shape[1]} matrix"
                )
            if (e[0], e[1]) in ent:
                raise ValueError(f"matrix entry [{e[0]}, {e[1]}] is listed twice")
            ent[(e[0], e[1])] = f.parse(e[2])
        return ExactMatrix(shape[0], shape[1], f, ent)


# -- tensor and block layouts ------------------------------------------------


def kron(A, B):
    """The Kronecker product A ox B: entry (i rows(B) + k, j cols(B) + l) is
    A[i, j] B[k, l], with no multiplication where either factor is one (the
    identity factors of most structure maps)."""
    f = A.field
    mul, one = f.mul, f.one
    rB, cB = B.nrows, B.ncols
    items = B.entries.items()
    ent = {}
    for (i, j), a in A.entries.items():
        r0, c0 = i * rB, j * cB
        if a == one:
            for (k, l), b in items:
                ent[(r0 + k, c0 + l)] = b
        else:
            for (k, l), b in items:
                ent[(r0 + k, c0 + l)] = a if b == one else mul(a, b)
    return ExactMatrix(A.nrows * rB, A.ncols * cB, f, ent, _clean=False)


def kron_lift(p, X, q):
    """I_p ox X ox I_q in one pass: the entries of kron(I_p, kron(X, I_q)),
    in its order, with no intermediate matrix."""
    r, c = X.nrows * q, X.ncols * q
    inner = [(k * q + j, l * q + j, v) for (k, l), v in X.entries.items()
             for j in range(q)]
    ent = {(k + r0, l + c0): v for r0, c0 in [(i * r, i * c) for i in range(p)]
           for k, l, v in inner}
    return ExactMatrix(p * r, p * c, X.field, ent, _clean=False)


def commutation(m, n, field):
    """The (mn) x (mn) matrix of e_i ox e_j -> e_j ox e_i (i < m, j < n):
    column i n + j holds a one in row j m + i."""
    one = field.one
    return ExactMatrix(
        m * n, m * n, field,
        {(j * m + i, i * n + j): one for i in range(m) for j in range(n)},
        _clean=False,
    )


def place_blocks(nrows, ncols, field, pieces):
    """The nrows x ncols sum of the pieces ``(row_offset, col_offset, M)``,
    each M placed with its entry (0, 0) at (row_offset, col_offset).  Where
    pieces overlap their entries are added; a sum of zero is not stored."""
    accumulate = field.accumulate
    ent = {}
    for r0, c0, M in pieces:
        if not (0 <= r0 <= nrows - M.nrows and 0 <= c0 <= ncols - M.ncols):
            raise ValueError(
                f"a {M.nrows}x{M.ncols} block at ({r0}, {c0}) leaves the "
                f"{nrows}x{ncols} matrix"
            )
        for (r, c), v in M.entries.items():
            accumulate(ent, (r0 + r, c0 + c), v)
    return ExactMatrix(nrows, ncols, field, ent, _clean=False)


def index_tuple(idx, radix, length):
    """The ``length`` mixed-radix digits of ``idx``, most significant first:
    the t with e_(t_1) ox ... ox e_(t_n) in row idx of a ``kron`` of
    radix-dimensional factors."""
    out = []
    for _ in range(length):
        idx, digit = divmod(idx, radix)
        out.append(digit)
    return tuple(reversed(out))


def _is_index(n, bound=None):
    """n is a non-negative int (not a bool), below ``bound`` unless None."""
    return (
        isinstance(n, int)
        and not isinstance(n, bool)
        and n >= 0
        and (bound is None or n < bound)
    )


def _flat_columns(keys, vals):
    """``{col: [row, val, row, val, ...]}`` for the positions ``(row, col)`` in
    ``keys`` and their ``vals``, rows in the order given: one flat list per
    column keeps the cache small, and ``zip(it, it)`` on one iterator reads it."""
    cols = {}
    for (r, c), n in zip(keys, vals):
        if c in cols:
            cols[c] += r, n
        else:
            cols[c] = [r, n]
    return cols


def _split_vector(vec, f):
    """A sparse vector {index: scalar} as ({index: numerator}, D)."""
    nums, D = f.split(vec.values())
    return dict(zip(vec, nums)), D


def _matmul_rational(A, B):
    """A @ B over Q on the integer columns of both cached splits: the
    entries of the scalar product, with one rational built per output entry
    over D_A D_B."""
    a_cols, DA = A.split_columns()
    b_cols, DB = B.split_columns()
    by_row = {}
    for c, col in b_cols.items():
        it = iter(col)
        for k, b in zip(it, it):
            by_row.setdefault(k, []).append((c, b))
    ent = {}
    for k, col in a_cols.items():
        row = by_row.get(k, ())
        it = iter(col)
        for r, a in zip(it, it):
            for c, b in row:
                rc = (r, c)
                ent[rc] = ent[rc] + a * b if rc in ent else a * b
    D = DA * DB
    return ExactMatrix(
        A.nrows, B.ncols, A.field,
        {rc: rat(n, D) for rc, n in ent.items() if n}, _clean=False,
    )


def _apply_columns(cols, xs, f):
    """Integer columns ``{j: [i, numerator, ...]}`` times numerators
    ``{j: x}``: the products ``{i: numerator}`` over the product of the two
    denominators.  Entries that cancel to zero are kept."""
    add, mul = f.add, f.mul
    out = {}
    for j, x in xs.items():
        it = iter(cols.get(j, ()))
        for i, v in zip(it, it):
            t = mul(v, x)
            out[i] = add(out[i], t) if i in out else t
    return out


def _membership_holds(cols, scale, x, v, f, skip=()):
    """The exact membership check B x = v on numerators: whether the integer
    columns ``cols`` of B times the numerators x are ``scale`` times the
    numerators v, scale = D_B D_x / D_v for the denominators of B, x and v.
    The rows in ``skip`` hold by construction and are not compared (``cols``
    has no entry there)."""
    Bx = _apply_columns(cols, x, f)
    mul, zero = f.mul, f.zero
    for r, n in v.items():
        if r not in skip and Bx.pop(r, zero) != mul(n, scale):
            return False
    return all(map(f.is_zero, Bx.values()))


def _int_key(key, bounds):
    """The tuple of ints named by the JSON key "i,j,...": one per entry of
    ``bounds``, each >= 0 and below its bound unless that is None."""
    parts = key.split(",")
    t = tuple(int(p) for p in parts if p.strip().isdigit())
    if not (len(t) == len(parts) == len(bounds)
            and all(_is_index(x, b) for x, b in zip(t, bounds))):
        raise ValueError(
            f"key {key!r} must be {len(bounds)} comma-separated ints in range"
        )
    return t


# -- elimination-backed operations ---------------------------------------


def _echelon(M, reduced=True):
    return kernel.row_echelon(M.rows_sparse(), M.ncols, M.field, reduced=reduced)


def rank(M):
    pivots, _, _ = _echelon(M, reduced=False)
    return len(pivots)


def kernel_basis(M):
    """Right kernel as a Subspace of the column-index space (see
    ``_echelon_kernel``)."""
    pivots, erows, _ = _echelon(M, reduced=True)
    return _echelon_kernel(pivots, erows, M.ncols, M.field)


def power_kernels(M, length):
    """``kernel_basis`` of M, M^2, ..., M^length without forming a power: the
    ``_echelon_kernel`` of each RREF of ``_power_echelons`` on M's rows.  An
    RREF depends only on the row space, so each link is the Subspace
    ``kernel_basis`` builds, positions too; this needs no nilpotency."""
    f, n = M.field, M.ncols
    return [_echelon_kernel(pivots, erows, n, f)
            for pivots, erows in _power_echelons(M.rows_sparse(), n, length, f, True)]


def power_images(M, length):
    """Column spaces of M, M^2, ..., M^length without forming a power:
    ``_power_echelons`` on M^T's rows, as col(M^k) = row((M^T)^k).  Link k
    is the ``Echelon`` of those rows, one per lead (the column rank profile
    rule on link 1), over Q primitive integer rows; ``len(link.leads)`` is
    rank M^k, and a fresh ``Echelon`` on ``link.leads`` extends the span
    without eliminating it again."""
    f, n = M.field, M.nrows
    links = _power_echelons(M.transpose().rows_sparse(), n, length, f, False)
    return [Echelon(f, n, zip(pivots, rows)) for pivots, rows in links]


def _power_echelons(rows, ncols, length, f, reduced):
    """Yield the ``(pivots, erows)`` of ``row_echelon`` for the row spaces of
    A, A^2, ..., A^length, A given by its sparse ``rows`` and ``ncols``.  As
    rowspace(A^(m+1)) = rowspace(A^m) A, the rows that go into link m+1 are
    link m's echelon rows r times A, one per rank, not the rows of
    A^(m+1); each r A is one ``_apply_columns`` on A's rows (over Q a
    positive multiple of r A)."""
    by_row = {k: [t for c, v in zip(*row) for t in (c, v)]
              for k, row in enumerate(rows)}
    for m in range(length):
        if m:
            rows = []
            for cols, vals in erows:
                prod = _apply_columns(by_row, dict(zip(cols, vals)), f)
                keep = sorted(c for c, v in prod.items() if not f.is_zero(v))
                if keep:
                    rows.append((keep, [prod[c] for c in keep]))
        pivots, erows, _ = kernel.row_echelon(rows, ncols, f, reduced=reduced)
        yield pivots, erows


def _echelon_kernel(pivots, erows, ncols, f):
    """The right kernel of a matrix with ``ncols`` columns from the pivots and
    echelon rows of its RREF (``row_echelon`` with ``reduced``): one basis
    column per free column fc, 1 at fc and minus the RREF rows' entries at
    fc in their pivot rows.  Every entry of a reduced row after its lead
    lies in a free column, so one pass scatters each row into the columns;
    the free columns are the Subspace's positions, where its basis is I."""
    piv_set = set(pivots)
    free = [j for j in range(ncols) if j not in piv_set]
    cols = {fc: {fc: f.one} for fc in free}
    rational = f.kind == "rationals"
    for p, (rc, rv) in zip(pivots, erows):
        lead = rv[0]  # over Q the RREF row is rv / lead
        for c, v in zip(rc[1:], rv[1:]):
            cols[c][p] = rat(-v, lead) if rational else f.neg(v)
    basis = ExactMatrix.from_columns(list(cols.values()), ncols, f)
    return Subspace(ncols, basis, positions=free)


def _column_echelon(M):
    """``(E, kept)``: the ``Echelon`` of M's columns absorbed in order in the
    kernel's row format (over Q integer rows), and the columns it kept, the
    pivot columns of any row echelon form of M."""
    E = Echelon(M.field, M.nrows)
    kept = [j for j, (cols, vals) in enumerate(M.transpose().rows_sparse())
            if E.absorb(cols, vals) is None]
    return E, kept


def span(M):
    """The column space of M as the ``Echelon`` of its columns: one stored
    row per lead, over Q primitive integer rows.  It is the B of a
    ``QuotientSpace``."""
    return _column_echelon(M)[0]


def image_basis(M):
    """Column space as a ``Subspace`` on the columns of M that ``span``
    keeps, which keeps that ``Echelon`` as its span."""
    E, kept = _column_echelon(M)
    S = Subspace(M.nrows, M.take_columns(kept))
    S._span = E
    return S


class EchelonSolver:
    """RREF of [M | I]; supports repeated solves M x = b.

    The identity part of the pivot rows is P, so that x = P b is a solution
    whenever one exists.  P is kept only as integer columns over one common
    denominator, and a solve runs on numerators: x = P b and the exact check
    M x = b, which rejects every b outside the image, are two integer
    applies.  Over Q row i of the kernel's input is D_M [M_i | e_i], for the
    numerator row D_M M_i of ``rows_sparse``."""

    def __init__(self, M):
        self.M = M
        f = self.field = M.field
        split = M.ncols
        aug = M.split_columns()[1] if f.kind == "rationals" else f.one
        rows = [
            (cols + [split + i], vals + [aug])
            for i, (cols, vals) in enumerate(M.rows_sparse())
        ]
        pivots, erows, _ = kernel.row_echelon(rows, split, f, reduced=True)
        self.pivots = pivots
        self.rank = len(pivots)
        self._P, self._DP = _identity_part(erows, split, f)
        # M x = b for x = x_num / (D_P D) and b = b_num / D reads
        # M_num x_num = D_M D_P b_num; the scale is D_M D_P as a numerator
        self._check_scale = f.numerator(M.split_columns()[1] * self._DP)

    def solve_split(self, b, D):
        """``solve`` on numerators: b is ``{index: numerator}`` over D, and the
        result is ``(x, D_x)`` with x ``{pivot column: numerator}`` over D_x,
        or None."""
        f = self.field
        is_zero = f.is_zero
        Pb = _apply_columns(self._P, b, f)
        pivots = self.pivots
        x = {pivots[i]: Pb[i] for i in sorted(Pb) if not is_zero(Pb[i])}
        # the exact check: P b solves M x = b exactly when b is in the image
        M_num = self.M.split_columns()[0]
        if not _membership_holds(M_num, self._check_scale, x, b, f):
            return None
        return x, D * self._DP

    def solve(self, b):
        """Particular solution with free variables set to zero, or None."""
        f = self.field
        sol = self.solve_split(*_split_vector(b, f))
        if sol is None:
            return None
        x, D = sol
        return {p: f.join(n, D) for p, n in x.items()}


def _identity_part(rows, split, f):
    """``(columns, D)``: the entries of the echelon ``rows`` from column
    ``split`` on, each row divided by its lead, as integer columns
    ``{column - split: [row index, numerator, ...]}`` over one denominator D.
    Over Q the rows are integer rows and D is the lcm of the leads; over
    Q(zeta_M) the leads are one and ``Field.split`` gives D."""
    part = [
        ((i, rc[k] - split), rv[k])
        for i, (rc, rv) in enumerate(rows)
        for k in range(bisect_left(rc, split), len(rc))
    ]
    if f.kind == "rationals":
        D = lcm(*[rv[0] for _, rv in rows])
        scale = [D // rv[0] for _, rv in rows]
        nums = [v * scale[i] for (i, _), v in part]
    else:
        nums, D = f.split([v for _, v in part])
    return _flat_columns([ij for ij, _ in part], nums), D


class Subspace:
    """A subspace given by a basis matrix B with independent columns, read
    in coordinates by one rule: at ``positions``, rows S at which B_S is
    invertible.  ``kernel_basis`` passes its free columns and the full space
    every row, where B_S = I; any other basis gets its row rank profile.  A
    vector v has the coordinates x = v_S when B_S = I, else x = B_S^-1 v_S
    by one ``EchelonSolver`` of B_S, whose exact check covers S; one
    ``_membership_holds`` on the rows off S then decides whether v lies in
    the span.  The first read raises ``ValueError`` naming the rank when
    B_S is singular, as it is for a basis with dependent columns."""

    def __init__(self, ambient_dim, basis, positions=None):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._positions = positions

    @staticmethod
    def full(n, field):
        return Subspace(n, ExactMatrix.identity(n, field), positions=range(n))

    @property
    def dim(self):
        return self.basis.ncols

    @property
    def field(self):
        return self.basis.field

    @property
    def positions(self):
        """S as given, else B's row rank profile (Dumas, Pernet and Sultan,
        ISSAC 2015): the leads of B's span, the ``Echelon`` of its columns."""
        if self._positions is None:
            self._positions = sorted(self._span.leads)
        return self._positions

    @cached_property
    def _span(self):
        return span(self.basis)

    def coordinates_split(self, xs, D):
        """``coordinates`` on numerators: xs is ``{index: numerator}`` over D,
        and the result is ``(x, D_x)`` with x ``{basis column: numerator}`` in
        ascending order over D_x, or None when the vector is not in the span."""
        index, solver, rest, scale = self._read
        f = self.field
        x = {index[r]: xs[r] for r in sorted(xs) if r in index and not f.is_zero(xs[r])}
        if solver is not None:
            x, D = solver.solve_split(x, D)
        return (x, D) if _membership_holds(rest, scale, x, xs, f, index) else None

    @cached_property
    def _read(self):
        """The index of S, the solver of B_S (None when B_S = I), and B's
        integer entries off S with the scale of their check."""
        B, f, k = self.basis, self.field, self.dim
        index = {r: i for i, r in enumerate(self.positions)}
        on = {(index[r], c): v for (r, c), v in B.entries.items() if r in index}
        B_S = ExactMatrix(len(index), k, f, on, _clean=False)
        solver = None if B_S == ExactMatrix.identity(k, f) else EchelonSolver(B_S)
        rank = solver.rank if solver else k
        if rank < k or len(index) > k:  # B_S must be square and invertible
            raise ValueError(f"a basis of {k} columns has rank {rank} "
                             f"at its {len(index)} positions")
        off = [(rc, v) for rc, v in B.entries.items() if rc[0] not in index]
        nums, DB = f.split([v for _, v in off])
        # x over D D_P: B x = v reads B_num x_num = D_B D_P v_num off S
        scale = f.numerator(DB * (solver._DP if solver else 1))
        return index, solver, _flat_columns([rc for rc, _ in off], nums), scale

    def position_inverse(self):
        """B_S^-1, which takes the values at S of a vector of the span to its
        coordinates: column i solves B_S x = e_i through the one solver of
        B_S that every read shares (e_i when B_S = I)."""
        solver, one = self._read[1], self.field.one
        cols = [{i: one} if solver is None else solver.solve({i: one})
                for i in range(self.dim)]
        return ExactMatrix.from_columns(cols, self.dim, self.field)

    def coordinates(self, v):
        """Coordinates of sparse vector v in this basis, or None."""
        f = self.field
        sol = self.coordinates_split(*_split_vector(v, f))
        if sol is None:
            return None
        x, D = sol
        return {k: f.join(n, D) for k, n in x.items()}

    def contains(self, v):
        return self.coordinates(v) is not None

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def intersection(S1, S2):
    """S1 cap S2 via the kernel of [B1 | -B2]: the columns B1 k1 for its basis
    columns k = (k1, k2), a basis already, since B1 and B2 have independent
    columns and so k -> B1 k1 is injective on the kernel."""
    f = S1.field
    B1, B2 = S1.basis, S2.basis
    stacked = B1.hstack(B2.scale(f.neg(f.one)))
    K = kernel_basis(stacked)
    cols = []
    for kcol in K.basis.columns():
        part = {j: v for j, v in kcol.items() if j < B1.ncols}
        cols.append(B1.apply(part))
    return Subspace(S1.ambient_dim, ExactMatrix.from_columns(cols, S1.ambient_dim, f))


class QuotientSpace:
    """Z / B with the deterministic complement rule: the representatives are
    the basis columns of Z that stay independent modulo B, taken from the
    last one down.  In Z's coordinates, column i is dependent modulo B and
    the later columns exactly when i is the lowest nonzero index of a vector
    of span(B_Z), B_Z the Z-coordinates of B, that is when i is a pivot of
    the RREF of B_Z^T.  So the quotient is the kernel K of B_Z^T: its free
    columns (K's positions) are the complement positions, and K^T, which
    kills B_Z and sends complement column k to e_k, is the class map.  The
    complement is the last basis of the matroid of the Z columns modulo B
    (Oxley, *Matroid Theory*, 2nd ed., 2.1, on the dual matroid).

    B is given as the ``Echelon`` that spans it (``span``, an image-chain
    link or a Subspace's span), and its stored rows go into the kernel as
    they come: each is read in Z's coordinates by ``coordinates_split``,
    whose check refuses a B outside Z, over Q as its integer row over D = 1
    and over Q(zeta_M) through one ``Field.split``.  The numerators are one
    input row, a nonzero multiple of the coordinate row, so no coordinate
    is built as a scalar.  K is the ``_echelon_kernel`` of their RREF, which
    depends on the row space alone, so the representatives do not depend on
    which rows span B."""

    def __init__(self, Z, B):
        if B.limit != Z.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        self.Z = Z
        self.B = B
        f = self.field = Z.field
        rational = f.kind == "rationals"
        rows = []  # the rows of B_Z^T: each row of B in Z's coordinates
        for c in sorted(B.leads):
            cols, vals = B.leads[c]
            nums, D = (vals, 1) if rational else f.split(vals)
            sol = Z.coordinates_split(dict(zip(cols, nums)), D)
            if sol is None:
                raise ValueError("B is not contained in Z")
            rows.append((list(sol[0]), list(sol[0].values())))
        pivots, erows, _ = kernel.row_echelon(rows, Z.dim, f, reduced=True)
        K = _echelon_kernel(pivots, erows, Z.dim, f)
        self.complement_positions = K.positions
        self.dim = K.dim
        self.class_map = K.basis.transpose()
        self._representatives = None

    def representatives(self):
        """Columns of Z's basis at the complement positions (ambient coords),
        built once."""
        if self._representatives is None:
            self._representatives = self.Z.basis.take_columns(self.complement_positions)
        return self._representatives

    def coordinates(self, v):
        """Class of v (must lie in Z) in the representative basis: the class
        map applied to v's Z-coordinates."""
        f = self.field
        sol = self.Z.coordinates_split(*_split_vector(v, f))
        if sol is None:
            raise ValueError("vector not in Z")
        out, D = self.class_map.apply_split(*sol)
        is_zero = f.is_zero
        return {k: f.join(out[k], D) for k in sorted(out) if not is_zero(out[k])}


def quotient_maps(S):
    """``(proj, section)`` for the quotient of S's ambient space by S under
    the complement rule: proj is the class map K^T of the left kernel K of S
    (``kernel_basis`` of S^T), section the unit vectors at its free columns.
    B is S's span, kept by ``image_basis`` or built from S's basis."""
    q = QuotientSpace(Subspace.full(S.ambient_dim, S.field), S._span)
    return q.class_map, q.representatives()


def restrict(M, S, T):
    """The matrix of M from S into T in their bases, or None when M moves a
    basis vector of S out of T: T's ``coordinates_split`` of each column of
    the one product M S.basis, read on the numerators of its
    ``split_columns`` (a zero column too, so every read checks T's basis)."""
    f = M.field
    image, D = (M @ S.basis).split_columns()
    cols = []
    for j in range(S.dim):
        it = iter(image.get(j, ()))
        sol = T.coordinates_split(dict(zip(it, it)), D)
        if sol is None:
            return None
        cols.append({i: f.join(n, sol[1]) for i, n in sol[0].items()})
    return ExactMatrix.from_columns(cols, T.dim, f)


def orbit_span(M, seeds, length):
    """The span of v, Mv, ..., M^(length-1) v over the seeds, as
    ``image_basis`` of those vectors with the empty ones skipped."""
    cols = []
    for w in seeds:
        for _ in range(length):
            if not w:
                break
            cols.append(w)
            w = M.apply(w)
    return image_basis(ExactMatrix.from_columns(cols, M.nrows, M.field))
