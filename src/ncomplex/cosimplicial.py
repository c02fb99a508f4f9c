"""(Pre-)cosimplicial modules with exact relation checking, the simplicial
differential and the N-differentials d_0/d_1, normalized cochains, Hochschild
and Chevalley-Eilenberg instances, tensor algebras T(A), the universal
envelopes Omega(A) and Omega_q(A), and the Theorem-2 / Prop-7 verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import Field, check_assumptions
from .graded import GradedNComplex, graded_homology
from .linalg import (
    ExactMatrix,
    Subspace,
    _is_index,
    image_basis,
    index_tuple,
    kernel_basis,
    kron,
    place_blocks,
    restrict,
    tuple_index,
)


# -- algebras ----------------------------------------------------------------


class AlgebraData:
    """Finite-dimensional algebra by structure constants.

    Associative case: two-sided unit required, counit optional.
    Lie case (``lie=True``): antisymmetry and Jacobi are validated instead
    and there is no unit.
    """

    def __init__(self, field, structure, unit=None, counit=None, lie=False,
                 check=True):
        self.field = field
        self.dim = len(structure)
        # structure[i][j] = sparse dict k -> c^k_{ij}
        self.structure = structure
        self.unit = unit
        self.counit = counit
        self.lie = lie
        if check:
            self.validate()

    def mul_basis(self, i, j):
        return self.structure[i][j]

    def mul(self, x, y):
        f = self.field
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = f.mul(a, b)
                for k, c in self.structure[i][j].items():
                    f.accumulate(out, k, f.mul(ab, c))
        return out

    def validate(self):
        f = self.field
        n = self.dim
        if self.lie:
            for i in range(n):
                for j in range(n):
                    lhs = self.structure[i][j]
                    rhs = {k: f.neg(v) for k, v in self.structure[j][i].items()}
                    if lhs != rhs:
                        raise ValueError(f"bracket not antisymmetric at ({i},{j})")
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        acc = {}
                        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                            inner = self.structure[a][b]
                            for t, v in inner.items():
                                for s, w in self.structure[t][c].items():
                                    f.accumulate(acc, s, f.mul(v, w))
                        if acc:
                            raise ValueError(f"Jacobi fails at ({i},{j},{k})")
            return True
        if self.unit is None:
            raise ValueError("associative algebra needs a unit")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul(self.mul({i: f.one}, {j: f.one}), {k: f.one})
                    rhs = self.mul({i: f.one}, self.mul({j: f.one}, {k: f.one}))
                    if lhs != rhs:
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
        for i in range(n):
            e = {i: f.one}
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError(f"unit fails on basis element {i}")
        if self.counit is not None:
            eps = self.counit
            one = f.zero
            for i, v in self.unit.items():
                one = f.add(one, f.mul(v, eps.get(i, f.zero)))
            if not f.eq(one, f.one):
                raise ValueError("counit does not send the unit to 1")
            for i in range(n):
                for j in range(n):
                    lhs = f.zero
                    for k, c in self.structure[i][j].items():
                        lhs = f.add(lhs, f.mul(c, eps.get(k, f.zero)))
                    rhs = f.mul(eps.get(i, f.zero), eps.get(j, f.zero))
                    if not f.eq(lhs, rhs):
                        raise ValueError(f"counit not multiplicative at ({i},{j})")
        return True

    def to_json(self):
        f = self.field
        sc = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in sorted(self.structure[i][j].items()):
                    sc.append([i, j, k, f.to_str(v)])
        obj = {
            "dim": self.dim,
            "field": f.to_json(),
            "structure_constants": sc,
            "lie": self.lie,
        }
        if self.unit is not None:
            obj["unit"] = [f.to_str(self.unit.get(i, f.zero)) for i in range(self.dim)]
        if self.counit is not None:
            obj["counit"] = [
                f.to_str(self.counit.get(i, f.zero)) for i in range(self.dim)
            ]
        return obj

    @staticmethod
    def from_json(obj):
        if not (
            isinstance(obj, dict)
            and {"field", "dim", "structure_constants"} <= obj.keys()
        ):
            raise ValueError(
                "an algebra must be a JSON object with keys field, dim and "
                "structure_constants"
            )
        f = Field.from_json(obj["field"])
        n = obj["dim"]
        if not _is_index(n):
            raise ValueError(f"algebra dim must be a non-negative int, got {n!r}")
        sc = obj["structure_constants"]
        if not isinstance(sc, list) or not all(
            isinstance(e, list) and len(e) == 4
            and all(_is_index(t, n) for t in e[:3]) and isinstance(e[3], str)
            for e in sc
        ):
            raise ValueError(
                "structure_constants must be a list of in-bounds [i, j, k, scalar]"
            )
        for key in ("unit", "counit"):
            if key in obj and not (
                isinstance(obj[key], list) and len(obj[key]) == n
                and all(isinstance(t, str) for t in obj[key])
            ):
                raise ValueError(f"algebra {key} must be a list of {n} scalars")
        structure = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k, s in sc:
            v = f.parse(s)
            if not f.is_zero(v):
                structure[i][j][k] = v
        unit = counit = None
        if "unit" in obj:
            unit = {
                i: f.parse(s)
                for i, s in enumerate(obj["unit"])
                if not f.is_zero(f.parse(s))
            }
        if "counit" in obj:
            counit = {
                i: f.parse(s)
                for i, s in enumerate(obj["counit"])
                if not f.is_zero(f.parse(s))
            }
        return AlgebraData(f, structure, unit, counit, obj.get("lie", False))


def field_algebra(field):
    """A = k."""
    return AlgebraData(
        field, [[{0: field.one}]], unit={0: field.one}, counit={0: field.one}
    )


def dual_numbers(field):
    """A = k[t]/(t^2), basis (1, t)."""
    f = field
    structure = [
        [{0: f.one}, {1: f.one}],
        [{1: f.one}, {}],
    ]
    return AlgebraData(f, structure, unit={0: f.one}, counit={0: f.one})


def matrix_algebra(field, n=2):
    """M_n(k) with the unit-matrix basis e_(r,c) at index r*n + c."""
    f = field
    dim = n * n
    structure = [[{} for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        structure[r * n + c][r2 * n + c2] = {r * n + c2: f.one}
    unit = {k * n + k: f.one for k in range(n)}
    return AlgebraData(f, structure, unit=unit)


def group_algebra_cyclic(field, order):
    """k[Z/order] with basis g^0..g^(order-1); counit g -> 1."""
    f = field
    structure = [
        [{(i + j) % order: f.one} for j in range(order)] for i in range(order)
    ]
    return AlgebraData(
        f,
        structure,
        unit={0: f.one},
        counit={i: f.one for i in range(order)},
    )


def truncated_polynomials(field, order):
    """k[s]/(s^order), basis s^0..s^(order-1); counit s -> 0."""
    f = field
    structure = [
        [({i + j: f.one} if i + j < order else {}) for j in range(order)]
        for i in range(order)
    ]
    return AlgebraData(f, structure, unit={0: f.one}, counit={0: f.one})


def abelian_lie(field, n):
    return AlgebraData(field, [[{} for _ in range(n)] for _ in range(n)], lie=True)


def nonabelian_lie2(field):
    """[e1, e2] = e2."""
    f = field
    structure = [[{}, {1: f.one}], [{1: f.neg(f.one)}, {}]]
    return AlgebraData(f, structure, lie=True)


def sl2(field):
    """Basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    f = field
    two = f.from_rat(2)
    E, F, H = 0, 1, 2
    structure = [[{} for _ in range(3)] for _ in range(3)]
    structure[H][E] = {E: two}
    structure[E][H] = {E: f.neg(two)}
    structure[H][F] = {F: f.neg(two)}
    structure[F][H] = {F: two}
    structure[E][F] = {H: f.one}
    structure[F][E] = {H: f.neg(f.one)}
    return AlgebraData(f, structure, lie=True)


class BimoduleData:
    """Bimodule over an associative algebra: left/right action matrices per
    algebra basis element."""

    def __init__(self, algebra, dim, left, right, check=True):
        self.algebra = algebra
        self.dim = dim
        self.left = left    # list of ExactMatrix, one per algebra basis index
        self.right = right
        if check:
            self.validate()

    def validate(self):
        A = self.algebra
        f = A.field
        ident = ExactMatrix.identity(self.dim, f)

        def act(mats, x):
            acc = ExactMatrix.zeros(self.dim, self.dim, f)
            for i, c in x.items():
                acc = acc + mats[i].scale(c)
            return acc

        if act(self.left, A.unit) != ident or act(self.right, A.unit) != ident:
            raise ValueError("bimodule actions are not unital")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.mul_basis(i, j)
                if act(self.left, prod) != self.left[i] @ self.left[j]:
                    raise ValueError(f"left action fails at ({i},{j})")
                # right action: m.(xy) = (m.x).y, i.e. R_(xy) = R_y R_x
                if act(self.right, prod) != self.right[j] @ self.right[i]:
                    raise ValueError(f"right action fails at ({i},{j})")
                if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                    raise ValueError(f"left/right actions do not commute ({i},{j})")
        return True

    @staticmethod
    def regular(algebra):
        """A as a bimodule over itself."""
        f = algebra.field
        n = algebra.dim
        left, right = [], []
        for i in range(n):
            L = {}
            R = {}
            for j in range(n):
                for k, c in algebra.mul_basis(i, j).items():
                    L[(k, j)] = c
                for k, c in algebra.mul_basis(j, i).items():
                    R[(k, j)] = c
            left.append(ExactMatrix(n, n, f, L))
            right.append(ExactMatrix(n, n, f, R))
        return BimoduleData(algebra, n, left, right)

    @staticmethod
    def from_left_action(algebra, dim, left):
        """Left module made into a bimodule with the trivial right action
        given by the counit."""
        f = algebra.field
        eps = algebra.counit
        if eps is None:
            raise ValueError("algebra has no counit")
        right = [
            ExactMatrix.identity(dim, f).scale(eps.get(i, f.zero))
            for i in range(algebra.dim)
        ]
        return BimoduleData(algebra, dim, left, right)


# -- cosimplicial data --------------------------------------------------------


class CosimplicialData:
    """Levels E^0..E^(n_max) with cofaces f_i: E^n -> E^(n+1) (0 <= i <= n+1)
    and optional codegeneracies s_i: E^(n+1) -> E^n (0 <= i <= n)."""

    def __init__(self, field, dims, cofaces, codegens=None, check=True,
                 product=None):
        self.field = field
        self.dims = list(dims)
        self.n_max = len(dims) - 1
        self.cofaces = cofaces      # cofaces[n][i]
        self.codegens = codegens    # codegens[n][i]: E^(n+1) -> E^n
        self.product = product
        if check:
            self.validate_relations()

    def validate_relations(self):
        for n in range(self.n_max):
            if len(self.cofaces[n]) != n + 2:
                raise ValueError(f"level {n} must have {n + 2} cofaces")
        # (F): f_j f_i = f_i f_(j-1) for i < j, on E^n -> E^(n+2)
        for n in range(self.n_max - 1):
            for j in range(n + 3):
                for i in range(j):
                    lhs = self.cofaces[n + 1][j] @ self.cofaces[n][i]
                    rhs = self.cofaces[n + 1][i] @ self.cofaces[n][j - 1]
                    if lhs != rhs:
                        raise ValueError(
                            f"(F) fails at level {n}, indices i={i}, j={j}"
                        )
        if self.codegens is None:
            return True
        for n in range(self.n_max):
            if len(self.codegens[n]) != n + 1:
                raise ValueError(f"level {n} must have {n + 1} codegeneracies")
        # (S): s_j s_i = s_i s_(j+1) for i <= j on E^(n+2) -> E^n
        for n in range(self.n_max - 1):
            for i in range(n + 2):
                for j in range(i, n + 1):
                    lhs = self.codegens[n][j] @ self.codegens[n + 1][i]
                    rhs = self.codegens[n][i] @ self.codegens[n + 1][j + 1]
                    if lhs != rhs:
                        raise ValueError(
                            f"(S) fails at level {n}, indices i={i}, j={j}"
                        )
        # (SF) on E^n -> E^n
        ident_cache = {
            n: ExactMatrix.identity(self.dims[n], self.field)
            for n in range(self.n_max + 1)
        }
        for n in range(self.n_max):
            for i in range(n + 2):
                for j in range(n + 1):
                    got = self.codegens[n][j] @ self.cofaces[n][i]
                    if i < j:
                        want = self.cofaces[n - 1][i] @ self.codegens[n - 1][j - 1] \
                            if n >= 1 else None
                    elif i == j or i == j + 1:
                        want = ident_cache[n]
                    else:
                        want = self.cofaces[n - 1][i - 1] @ self.codegens[n - 1][j] \
                            if n >= 1 else None
                    if want is not None and got != want:
                        raise ValueError(
                            f"(SF) fails at level {n}, indices i={i}, j={j}"
                        )
        return True


def constant_cosimplicial(field, n_max):
    """All levels k, all structure maps the identity."""
    one = ExactMatrix.identity(1, field)
    dims = [1] * (n_max + 1)
    cofaces = [[one] * (n + 2) for n in range(n_max)]
    codegens = [[one] * (n + 1) for n in range(n_max)]
    return CosimplicialData(field, dims, cofaces, codegens)


def simplicial_differential(E):
    """d = sum (-1)^i f_i, a classical complex (N = 2), truncated above."""
    f = E.field
    return d0(E, f.neg(f.one), 2)


def d0(E, q, N):
    """d_0 = sum_{i=0}^{n+1} q^i f_i; an N-complex when [N]_q = 0."""
    return _weighted_coface_complex(E, q, N, last_sign=False)


def d1(E, q, N):
    """d_1 = sum_{i=0}^n q^i f_i - q^n f_(n+1); an N-complex when [N]_q = 0."""
    return _weighted_coface_complex(E, q, N, last_sign=True)


def _weighted_coface_complex(E, q, N, last_sign):
    f = E.field
    if check_assumptions(q, N, f) == "none":
        raise ValueError("need at least (A0): [N]_q = 0")
    maps = {}
    for n in range(E.n_max):
        acc = ExactMatrix.zeros(E.dims[n + 1], E.dims[n], f)
        qi = f.one
        for i in range(n + 1):
            acc = acc + E.cofaces[n][i].scale(qi)
            qi = f.mul(qi, q)
        # i = n + 1 term: q^(n+1) for d_0, -q^n for d_1
        if last_sign:
            coeff = f.neg(f.pow(q, n))
        else:
            coeff = f.pow(q, n + 1)
        acc = acc + E.cofaces[n][n + 1].scale(coeff)
        maps[n] = acc
    return GradedNComplex(
        N, f, {n: E.dims[n] for n in range(E.n_max + 1)}, maps,
        truncated_above=True,
    )


def normalized_subcomplex(E, compare_cohomology=True):
    """Restriction of the simplicial differential to cap_i ker s_i.

    Returns (complex, level_bases).  Validates that d preserves the
    normalized part and (optionally) that the inclusion is a cohomology
    isomorphism degreewise inside the window."""
    if E.codegens is None:
        raise ValueError("normalization needs codegeneracies")
    f = E.field
    bases = [Subspace.full(E.dims[0], f)]
    for n in range(1, E.n_max + 1):
        stacked = E.codegens[n - 1][0]
        for i in range(1, n):
            stacked = stacked.vstack(E.codegens[n - 1][i])
        bases.append(kernel_basis(stacked))
    full = simplicial_differential(E)
    maps = {}
    for n in range(E.n_max):
        maps[n] = restrict(full.map(n), bases[n], bases[n + 1])
        if maps[n] is None:
            raise ValueError(f"differential does not preserve N^{n}")
    sub = GradedNComplex(
        2, f, {n: bases[n].dim for n in range(E.n_max + 1)}, maps,
        truncated_above=True,
    )
    if compare_cohomology:
        Hf = graded_homology(full, ms=[1])
        Hs = graded_homology(sub, ms=[1])
        for n in range(E.n_max):
            if Hf.valid(n, 1) and Hs.valid(n, 1):
                if Hf[(n, 1)].dim_H != Hs[(n, 1)].dim_H:
                    raise AssertionError(
                        f"normalization changed cohomology at degree {n}"
                    )
    return sub, bases


# -- Hochschild ---------------------------------------------------------------


def _unit_column(A):
    """The unit of A as an a x 1 matrix."""
    return ExactMatrix(A.dim, 1, A.field, {(t, 0): u for t, u in A.unit.items()})


def _multiplication(A):
    """The product A ox A -> A as an a x a^2 matrix: column x a + y holds the
    structure constants of e_x e_y."""
    a = A.dim
    return ExactMatrix.from_columns(
        [A.mul_basis(x, y) for x in range(a) for y in range(a)], a, A.field
    )


def hochschild(A, M, n_max):
    """The cosimplicial module C^n(A, M) of M-valued Hochschild cochains.

    Level n is M ox (A*)^(ox n), of dimension dim(M) * dim(A)^n.  The cofaces
    are Kronecker products: f_0 and f_(n+1) let the first and the last
    argument act on the value (a sum over the basis e_i of A), f_k
    multiplies arguments k - 1 and k (the transpose of the product), and s_i
    inserts the unit at argument i."""
    f = A.field
    a = A.dim
    dims = [M.dim * a**n for n in range(n_max + 1)]
    mu_t = _multiplication(A).transpose()
    unit_t = _unit_column(A).transpose()
    units = [ExactMatrix(a, 1, f, {(i, 0): f.one}) for i in range(a)]

    def one(k):
        return ExactMatrix.identity(k, f)

    cofaces, codegens = [], []
    for n in range(n_max):
        I = one(a**n)
        level = [place_blocks(dims[n + 1], dims[n], f, [
            (0, 0, kron(L, kron(e, I))) for L, e in zip(M.left, units)])]
        level += [
            kron(one(M.dim * a ** (k - 1)), kron(mu_t, one(a ** (n - k))))
            for k in range(1, n + 1)
        ]
        level.append(place_blocks(dims[n + 1], dims[n], f, [
            (0, 0, kron(R, kron(I, e))) for R, e in zip(M.right, units)]))
        cofaces.append(level)
        codegens.append([
            kron(one(M.dim * a**i), kron(unit_t, one(a ** (n - i))))
            for i in range(n + 1)
        ])
    return CosimplicialData(f, dims, cofaces, codegens)


# -- Chevalley-Eilenberg -------------------------------------------------------


def chevalley_eilenberg(g, rep_mats, rep_dim, p_max):
    """Cochains Hom(Lambda^n g, R) with the two-sum differential (N = 2).

    ``rep_mats[i]`` is pi(e_i); the representation property is validated."""
    if not g.lie:
        raise ValueError("g must be a Lie algebra")
    f = g.field
    n = g.dim
    for i in range(n):
        for j in range(n):
            comm = rep_mats[i] @ rep_mats[j] - rep_mats[j] @ rep_mats[i]
            acc = ExactMatrix.zeros(rep_dim, rep_dim, f)
            for k, c in g.mul_basis(i, j).items():
                acc = acc + rep_mats[k].scale(c)
            if comm != acc:
                raise ValueError(f"representation property fails at ({i},{j})")

    subsets = {p: list(combinations(range(n), p)) for p in range(p_max + 2)}
    index = {p: {S: k for k, S in enumerate(subsets[p])} for p in subsets}
    dims = {p: len(subsets[p]) * rep_dim for p in range(p_max + 1)}

    def wedge_insert(c, rest):
        """Sign and sorted tuple for inserting generator c into sorted rest."""
        if c in rest:
            return None, 0
        pos = 0
        while pos < len(rest) and rest[pos] < c:
            pos += 1
        sign = -1 if pos % 2 else 1
        return rest[:pos] + (c,) + rest[pos:], sign

    maps = {}
    for p in range(p_max):
        ent = {}
        for T in subsets[p + 1]:
            row_base = index[p + 1][T]
            for k, tk in enumerate(T):
                rest = T[:k] + T[k + 1:]
                col_base = index[p][rest]
                sgn = f.one if k % 2 == 0 else f.neg(f.one)
                for (r2, r1), v in rep_mats[tk].entries.items():
                    key = (row_base * rep_dim + r2, col_base * rep_dim + r1)
                    f.accumulate(ent, key, f.mul(sgn, v))
            for r_i, s_i in combinations(range(p + 1), 2):
                rest = tuple(t for k2, t in enumerate(T) if k2 not in (r_i, s_i))
                base_sign = -1 if (r_i + s_i) % 2 else 1
                for c, v in g.mul_basis(T[r_i], T[s_i]).items():
                    arg, ins_sign = wedge_insert(c, rest)
                    if arg is None:
                        continue
                    col_base = index[p][arg]
                    coeff = f.from_rat(base_sign * ins_sign)
                    coeff = f.mul(coeff, v)
                    for r in range(rep_dim):
                        key = (row_base * rep_dim + r, col_base * rep_dim + r)
                        f.accumulate(ent, key, coeff)
        maps[p] = ExactMatrix(dims.get(p + 1, 0), dims[p], f, ent, _clean=False)
    return GradedNComplex(2, f, dims, maps, truncated_above=(p_max < n))


# -- tensor algebra and envelopes ---------------------------------------------


def tensor_algebra(A, n_max, check_m_axioms=True, check_relations=True):
    """T^n(A) = A^(ox (n+1)) with unit-insertion cofaces, multiplication
    codegeneracies and the concatenate-with-middle-product algebra structure."""
    f = A.field
    a = A.dim
    dims = [a ** (n + 1) for n in range(n_max + 1)]
    mu, unit = _multiplication(A), _unit_column(A)

    def one(k):
        return ExactMatrix.identity(k, f)

    cofaces = [
        [kron(one(a**i), kron(unit, one(a ** (n + 1 - i)))) for i in range(n + 2)]
        for n in range(n_max)
    ]
    codegens = [
        [kron(one(a**i), kron(mu, one(a ** (n - i)))) for i in range(n + 1)]
        for n in range(n_max)
    ]

    def prod(a_deg, va, b_deg, vb):
        out = {}
        tgt_len = a_deg + b_deg + 1
        for ia, ca in va.items():
            ta = index_tuple(ia, a, a_deg + 1)
            for ib, cb in vb.items():
                tb = index_tuple(ib, a, b_deg + 1)
                cab = f.mul(ca, cb)
                for t, c in A.mul_basis(ta[-1], tb[0]).items():
                    out_t = ta[:-1] + (t,) + tb[1:]
                    k = tuple_index(out_t, a)
                    f.accumulate(out, k, f.mul(cab, c))
        if not all(0 <= k < a**tgt_len for k in out):
            raise AssertionError("product index outside the target level")
        return out

    E = CosimplicialData(f, dims, cofaces, codegens, check=check_relations,
                         product=prod)
    if check_m_axioms:
        _check_multiplicative_axioms(E, A, min(n_max, 3))
    return E


def _check_multiplicative_axioms(E, A, cap):
    """(MF1), (MF2), (MS) on basis pairs with a + b + 2 <= cap + 1."""
    f = E.field
    for adeg in range(cap):
        for bdeg in range(cap - adeg):
            if adeg + bdeg + 1 > E.n_max:
                continue
            n = adeg + bdeg  # level of the product
            for ia in range(E.dims[adeg]):
                va = {ia: f.one}
                for ib in range(E.dims[bdeg]):
                    vb = {ib: f.one}
                    ab = E.product(adeg, va, bdeg, vb)
                    # (MF1) for i in {0..a+b+1}
                    for i in range(adeg + bdeg + 2):
                        lhs = E.cofaces[n][i].apply(ab)
                        if i <= adeg:
                            fa = E.cofaces[adeg][i].apply(va)
                            rhs = E.product(adeg + 1, fa, bdeg, vb)
                        else:
                            fb = E.cofaces[bdeg][i - adeg].apply(vb)
                            rhs = E.product(adeg, va, bdeg + 1, fb)
                        if lhs != rhs:
                            raise AssertionError(f"(MF1) fails at i={i}")
                    # (MF2): f_(a+1)(alpha) beta = alpha f_0(beta)
                    fa = E.cofaces[adeg][adeg + 1].apply(va)
                    lhs2 = E.product(adeg + 1, fa, bdeg, vb)
                    fb = E.cofaces[bdeg][0].apply(vb)
                    rhs2 = E.product(adeg, va, bdeg + 1, fb)
                    if lhs2 != rhs2:
                        raise AssertionError("(MF2) fails")
                    # (MS) for i in {0..a+b-1}
                    for i in range(adeg + bdeg):
                        lhs = E.codegens[n - 1][i].apply(ab)
                        if i < adeg:
                            sa = E.codegens[adeg - 1][i].apply(va)
                            rhs = E.product(adeg - 1, sa, bdeg, vb)
                        else:
                            sb = E.codegens[bdeg - 1][i - adeg].apply(vb)
                            rhs = E.product(adeg, va, bdeg - 1, sb)
                        if lhs != rhs:
                            raise AssertionError(f"(MS) fails at i={i}")


def universal_envelope(A, n_max):
    """Omega(A): normalized subcomplex of T(A) with its inherited product.

    Returns (complex-with-product, bases)."""
    T = tensor_algebra(A, n_max, check_m_axioms=False)
    sub, bases = normalized_subcomplex(T, compare_cohomology=False)
    sub.product = _product_in_bases(
        T, bases, "normalized part is not closed under the product"
    )
    return sub, bases


def omega_q(A, q, N, n_max):
    """Universal q-differential envelope: the smallest d_1-stable subalgebra
    of (T(A), d_1) containing A, computed degreewise by closure.

    Returns (complex-with-product, bases) in T(A) coordinates."""
    f = A.field
    if check_assumptions(q, N, f) != "A1":
        raise ValueError("(A1) required")
    T = tensor_algebra(A, n_max, check_m_axioms=False)
    D = d1(T, q, N)
    spans = [[] for _ in range(n_max + 1)]
    spans[0] = [{i: f.one} for i in range(A.dim)]
    bases = [None] * (n_max + 1)

    def rebuild(n):
        mat = ExactMatrix.from_columns(spans[n], T.dims[n], f)
        bases[n] = image_basis(mat)
        spans[n] = bases[n].basis.columns()

    for n in range(n_max + 1):
        rebuild(n)
    changed = True
    while changed:
        changed = False
        for n in range(n_max + 1):
            old = bases[n].dim
            new_cols = list(spans[n])
            if n >= 1:
                for col in spans[n - 1]:
                    v = D.map(n - 1).apply(col)
                    if v:
                        new_cols.append(v)
                for adeg in range(n + 1):
                    bdeg = n - adeg
                    for va in spans[adeg]:
                        for vb in spans[bdeg]:
                            v = T.product(adeg, va, bdeg, vb)
                            if v:
                                new_cols.append(v)
            spans[n] = new_cols
            rebuild(n)
            if bases[n].dim != old:
                changed = True
    maps = {}
    for n in range(n_max):
        maps[n] = restrict(D.map(n), bases[n], bases[n + 1])
        if maps[n] is None:
            raise AssertionError("closure failed to be d_1-stable")
    prod = _product_in_bases(
        T, bases, "closure failed to be multiplicatively stable"
    )
    C = GradedNComplex(
        N, f, {n: bases[n].dim for n in range(n_max + 1)}, maps,
        truncated_above=True, product=prod,
    )
    return C, bases


def _product_in_bases(T, bases, failure):
    """T's product read in the coordinates of the level bases; raises
    AssertionError(failure) when a product leaves them."""

    def prod(a_deg, va, b_deg, vb):
        big = T.product(
            a_deg, bases[a_deg].basis.apply(va), b_deg, bases[b_deg].basis.apply(vb)
        )
        c = bases[a_deg + b_deg].coordinates(big)
        if c is None:
            raise AssertionError(failure)
        return c

    return prod


# -- verifiers ----------------------------------------------------------------


@dataclass
class TheoremReport:
    ok: bool
    details: dict

    def to_json(self):
        return {"ok": self.ok, "details": self.details}


def ordinary_cohomology_dims(E, window):
    C = simplicial_differential(E)
    H = graded_homology(C, ms=[1])
    return {n: H[(n, 1)].dim_H for n in range(window + 1) if H.valid(n, 1)}


def theorem2_verify(E, q, N, window):
    """Check the placement pattern of the generalized cohomologies of
    (E, d_0) and (E, d_1) against the ordinary cohomology of E."""
    f = E.field
    if check_assumptions(q, N, f) != "A1":
        raise ValueError("(A1) required")
    if E.codegens is None:
        raise ValueError("theorem 2 needs a full cosimplicial structure")
    if E.n_max < N:
        raise ValueError("window too small: need at least one full period N")
    ordinary = ordinary_cohomology_dims(E, E.n_max)
    C0 = d0(E, q, N)
    C1 = d1(E, q, N)
    H0 = graded_homology(C0)
    H1 = graded_homology(C1)

    def expected_d0(n, m):
        # H^(Nr-1) = H^(2r-1); H^(N(r+1)-m-1) = H^(2r); else 0
        if (n + 1) % N == 0:
            r = (n + 1) // N
            return ("H", 2 * r - 1)
        if (n + 1 + m) % N == 0:
            r = (n + 1 + m) // N - 1
            return ("H", 2 * r)
        return ("zero", None)

    def expected_d1(n, m):
        if n % N == 0:
            return ("H", 2 * (n // N))
        if (n + m) % N == 0:
            r = (n + m) // N - 1
            return ("H", 2 * r + 1)
        return ("zero", None)

    details = {"compared": 0, "skipped": 0, "mismatches": []}
    ok = True
    for H, expected, tag in ((H0, expected_d0, "d0"), (H1, expected_d1, "d1")):
        for m in range(1, N):
            for n in range(0, window + 1):
                if not H.valid(n, m):
                    details["skipped"] += 1
                    continue
                got = H[(n, m)].dim_H
                kind, deg = expected(n, m)
                if kind == "zero":
                    want = 0
                elif deg in ordinary:
                    want = ordinary[deg]
                else:
                    details["skipped"] += 1
                    continue
                details["compared"] += 1
                if got != want:
                    ok = False
                    details["mismatches"].append(
                        {"side": tag, "n": n, "m": m, "got": got, "want": want}
                    )
    details["ordinary"] = ordinary
    return TheoremReport(ok, details)


def prop7_verify(A, q, N, window):
    """H^n_(k)(T(A), d_1) = 0 for 1 <= n <= window with H^0_(k) = k, and the
    same for Omega_q(A)."""
    n_max = window + N - 1
    T = tensor_algebra(A, n_max, check_m_axioms=False, check_relations=False)
    C1 = d1(T, q, N)
    H = graded_homology(C1)
    details = {"T": {}, "Omega_q": {}}
    ok = True
    for k in range(1, N):
        for n in range(0, window + 1):
            if not H.valid(n, k):
                raise ValueError(f"window too small for H^{n}_({k})")
            got = H[(n, k)].dim_H
            details["T"][f"H^{n}_({k})"] = got
            want = 1 if n == 0 else 0
            if got != want:
                ok = False
    Oq, _ = omega_q(A, q, N, n_max)
    HO = graded_homology(Oq)
    for k in range(1, N):
        for n in range(0, window + 1):
            if not HO.valid(n, k):
                raise ValueError(f"window too small for Omega_q H^{n}_({k})")
            got = HO[(n, k)].dim_H
            details["Omega_q"][f"H^{n}_({k})"] = got
            want = 1 if n == 0 else 0
            if got != want:
                ok = False
    return TheoremReport(ok, details)


def q_tensor_leibniz_witness(C, q):
    """Search for a pair witnessing that d on C ox C fails the graded
    q-Leibniz rule for the product (a ox b)(a' ox b') = q^(deg b deg a')
    (aa') ox (bb'); returns the witness description or None."""
    from .graded import TensorIndex, tensor_differential

    f = C.field
    idx = TensorIndex(C, C, C.cyclic)
    dmaps = {n: tensor_differential(idx, q, n) for n in idx.layout}

    def tensor_d(n, vec):
        """d(x ox y) = dx ox y + q^deg(x) x ox dy; None if any needed map is
        outside the window."""
        return None if dmaps[n] is None else dmaps[n].apply(vec)

    def tensor_product(n1, v1, n2, v2):
        """product on C ox C with the q-sign rule."""
        out = {}
        for (r1, s1), off1 in idx.layout[n1].items():
            for (r2, s2), off2 in idx.layout[n2].items():
                sign = f.pow(q, s1 * r2)
                for i1 in range(C.dims[r1]):
                    for j1 in range(C.dims[s1]):
                        c1 = v1.get(off1 + i1 * C.dims[s1] + j1)
                        if c1 is None:
                            continue
                        for i2 in range(C.dims[r2]):
                            for j2 in range(C.dims[s2]):
                                c2 = v2.get(off2 + i2 * C.dims[s2] + j2)
                                if c2 is None:
                                    continue
                                tgt = n1 + n2
                                r3, s3 = r1 + r2, s1 + s2
                                if (r3, s3) not in idx.layout.get(tgt, {}):
                                    continue
                                aa = C.product(r1, {i1: f.one}, r2, {i2: f.one})
                                bb = C.product(s1, {j1: f.one}, s2, {j2: f.one})
                                coeff = f.mul(f.mul(c1, c2), sign)
                                for ii, av in aa.items():
                                    for jj, bv in bb.items():
                                        row = idx.pos(tgt, r3, s3, ii, jj)
                                        f.accumulate(
                                            out, row, f.mul(coeff, f.mul(av, bv))
                                        )
        return out

    for n1 in sorted(idx.layout):
        for n2 in sorted(idx.layout):
            tgt = n1 + n2
            if tgt + 1 not in idx.dims or n1 + 1 not in idx.dims or n2 + 1 not in idx.dims:
                continue
            for i1 in range(idx.dims[n1]):
                v1 = {i1: f.one}
                for i2 in range(idx.dims[n2]):
                    v2 = {i2: f.one}
                    ab = tensor_product(n1, v1, n2, v2)
                    lhs = tensor_d(tgt, ab)
                    da = tensor_d(n1, v1)
                    db = tensor_d(n2, v2)
                    if lhs is None or da is None or db is None:
                        continue
                    rhs = tensor_product(n1 + 1, da, n2, v2)
                    for r, v in tensor_product(n1, v1, n2 + 1, db).items():
                        f.accumulate(rhs, r, f.mul(f.pow(q, n1), v))
                    if lhs != rhs:
                        return {"degrees": (n1, n2), "indices": (i1, i2)}
    return None
