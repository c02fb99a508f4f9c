"""Exact sparse linear algebra over a Field: Kronecker products and block
placement, rank, kernel/image bases, solving, subspaces and quotients with
deterministic representative choices."""

from __future__ import annotations

from bisect import bisect_left
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


def tuple_index(tup, radix):
    """The mixed-radix index of ``tup``, most significant digit first: the
    row of e_(t_1) ox ... ox e_(t_n) in a ``kron`` of radix-dimensional
    factors."""
    idx = 0
    for t in tup:
        idx = idx * radix + t
    return idx


def index_tuple(idx, radix, length):
    """The inverse of ``tuple_index`` on tuples of ``length`` digits."""
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
    """Right kernel as a Subspace of the column-index space; deterministic
    free-variable parametrization of the RREF."""
    f = M.field
    pivots, erows, _ = _echelon(M, reduced=True)
    piv_set = set(pivots)
    free = [j for j in range(M.ncols) if j not in piv_set]
    cols = []
    for fc in free:
        col = {fc: f.one}
        for p, (rc, rv) in zip(pivots, erows):
            lo = bisect_left(rc, fc)
            if lo < len(rc) and rc[lo] == fc:  # over Q the RREF row is rv / lead
                col[p] = rat(-rv[lo], rv[0]) if f.kind == "rationals" else f.neg(rv[lo])
        cols.append(col)
    return Subspace(M.ncols, ExactMatrix.from_columns(cols, M.ncols, f))


def image_basis(M):
    """Column space: the columns of M that ``Echelon`` keeps, the pivot columns
    of any row echelon form of M.  The Subspace keeps the echelon, whose
    rows are M's columns in the kernel's row format, for reuse."""
    E = Echelon(M.field, M.nrows)
    kept = [j for j, (cols, vals) in enumerate(M.transpose().rows_sparse())
            if E.absorb(cols, vals) is None]
    return Subspace(M.nrows, M.take_columns(kept), E)


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
        Mx = _apply_columns(self.M.split_columns()[0], x, f)
        scale, mul, zero = self._check_scale, f.mul, f.zero
        for j, v in b.items():
            if Mx.pop(j, zero) != mul(v, scale):
                return None
        if not all(map(is_zero, Mx.values())):
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
    """A subspace given by a basis matrix with independent columns."""

    def __init__(self, ambient_dim, basis, echelon=None):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.echelon = echelon  # an ``Echelon`` of the basis, when kept
        self._solver = None

    @staticmethod
    def full(n, field):
        return Subspace(n, ExactMatrix.identity(n, field))

    @staticmethod
    def zero(n, field):
        return Subspace(n, ExactMatrix.zeros(n, 0, field))

    @property
    def dim(self):
        return self.basis.ncols

    @property
    def field(self):
        return self.basis.field

    def solver(self):
        if self._solver is None:
            self._solver = EchelonSolver(self.basis)
        return self._solver

    def coordinates(self, v):
        """Coordinates of sparse vector v in this basis, or None."""
        return self.solver().solve(v)

    def contains(self, v):
        return self.coordinates(v) is not None

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def intersection(S1, S2):
    """S1 cap S2 via the kernel of [B1 | -B2]."""
    f = S1.field
    B1, B2 = S1.basis, S2.basis
    stacked = B1.hstack(B2.scale(f.neg(f.one)))
    K = kernel_basis(stacked)
    cols = []
    for kcol in K.basis.columns():
        part = {j: v for j, v in kcol.items() if j < B1.ncols}
        cols.append(B1.apply(part))
    mat = ExactMatrix.from_columns(cols, S1.ambient_dim, f)
    return image_basis(mat)


class QuotientSpace:
    """Z / B with the deterministic complement rule: the representatives are
    the basis columns of Z that stay independent modulo B, taken from the
    last one down, so the pivots of one elimination of [B | Z reversed] find
    them.  They are the complement of the first basis (the pivots) of the
    matroid of the rows of B's Z-coordinate matrix, since such a complement
    is the last basis of the dual matroid (Oxley, *Matroid Theory*, 2nd ed.,
    2.1), here the matroid of the Z columns modulo B.  The same solver gives
    the class of a vector in one solve; Z's own solver is never built."""

    def __init__(self, Z, B):
        if B.ambient_dim != Z.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        self.Z = Z
        self.B = B
        self.field = Z.field
        zdim, bdim = Z.dim, B.dim
        self._solver = EchelonSolver(
            B.basis.hstack(Z.basis.take_columns(range(zdim - 1, -1, -1)))
        )
        pivots = self._solver.pivots
        # Z's columns are independent: [B | Z] has rank dim Z iff B lies in Z
        if len(pivots) != zdim:
            raise ValueError("B is not contained in Z")
        # Z's column i is column bdim + zdim - 1 - i of [B | Z reversed]
        self._pivots = [p for p in reversed(pivots) if p >= bdim]
        self.complement_positions = [bdim + zdim - 1 - p for p in self._pivots]
        self.dim = len(self._pivots)

    def representatives(self):
        """Columns of Z's basis at the complement positions (ambient coords)."""
        return self.Z.basis.take_columns(self.complement_positions)

    def coordinates(self, v):
        """Class of v (must lie in Z) in the representative basis: the
        complement-column coefficients of the one solve of v."""
        f = self.field
        sol = self._solver.solve_split(*_split_vector(v, f))
        if sol is None:
            raise ValueError("vector not in Z")
        x, D = sol
        out = {}
        for k, p in enumerate(self._pivots):
            c = x.get(p)
            if c is not None:
                out[k] = f.join(c, D)
        return out


def quotient_maps(S):
    """``(proj, section)`` for the quotient of S's ambient space by S under
    the complement rule: section is the unit vectors at the complement
    positions, proj the class of each unit vector."""
    f, n = S.field, S.ambient_dim
    q = QuotientSpace(Subspace.full(n, f), S)
    proj = ExactMatrix.from_columns(
        [q.coordinates({j: f.one}) for j in range(n)], q.dim, f
    )
    return proj, q.representatives()


def restrict(M, S, T):
    """The matrix of M from S into T in their bases, or None when M moves a
    basis vector of S out of T."""
    cols = []
    for col in S.basis.columns():
        c = T.coordinates(M.apply(col))
        if c is None:
            return None
        cols.append(c)
    return ExactMatrix.from_columns(cols, T.dim, M.field)


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
