"""(Pre-)cosimplicial modules with certified relations, the simplicial
differential and the N-differentials d_0/d_1, Hochschild and
Chevalley-Eilenberg instances, tensor algebras T(A), the universal envelopes
Omega(A) and Omega_q(A) from their normal-form words, and the Theorem-2 /
Prop-7 verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations

from .brs import _merge_odd
from .fields import Field, check_assumptions, check_keys
from .graded import (
    GradedNComplex,
    TensorIndex,
    _first_nonzero_column,
    graded_homology,
    q_leibniz_failure,
    tensor_differential,
)
from .linalg import (
    ExactMatrix,
    Subspace,
    _is_index,
    commutation,
    index_tuple,
    kron,
    place_blocks,
    restrict,
)


# -- algebras ----------------------------------------------------------------


class AlgebraData:
    """Finite-dimensional algebra by structure constants.

    Associative case: two-sided unit required, counit optional.
    Lie case (``lie=True``): antisymmetry and Jacobi are validated instead
    and there is no unit.
    """

    def __init__(self, field, structure, unit=None, counit=None, lie=False):
        self.field = field
        self.dim = len(structure)
        # structure[i][j] = sparse dict k -> c^k_{ij}
        self.structure = structure
        self.unit = unit
        self.counit = counit
        self.lie = lie
        self.validate()

    def mul_basis(self, i, j):
        return self.structure[i][j]

    def validate(self):
        """The laws as identities between matrices on A ox A and A ox A ox A
        (mu the product, u the unit, eps the counit); a failure names the
        first basis tuple, the first nonzero column of lhs - rhs."""
        f, n = self.field, self.dim
        mu, one = _multiplication(self), ExactMatrix.identity(n, f)

        def law(diff, what, length):
            col = _first_nonzero_column(diff)
            if col is not None:
                at = ",".join(map(str, index_tuple(col, n, length)))
                raise ValueError(f"{what} at ({at})")

        if self.lie:
            law(mu + mu @ commutation(n, n, f), "bracket not antisymmetric", 2)
            # [[x, y], z] on the cyclic shifts of x ox y ox z
            J = mu @ kron(mu, one)
            law(J + J @ commutation(n, n * n, f) + J @ commutation(n * n, n, f),
                "Jacobi fails", 3)
            return True
        if self.unit is None:
            raise ValueError("associative algebra needs a unit")
        law(mu @ kron(mu, one) - mu @ kron(one, mu), "associativity fails", 3)
        u = _unit_column(self)
        col = _first_nonzero_column(
            (mu @ kron(u, one) - one).vstack(mu @ kron(one, u) - one))
        if col is not None:
            raise ValueError(f"unit fails on basis element {col}")
        if self.counit is not None:
            eps = ExactMatrix(1, n, f, {(0, i): v for i, v in self.counit.items()})
            if eps @ u != ExactMatrix.identity(1, f):
                raise ValueError("counit does not send the unit to 1")
            law(eps @ mu - kron(eps, eps), "counit not multiplicative", 2)
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
        check_keys(obj, "an algebra", ("field", "dim", "structure_constants"),
                   ("lie", "unit", "counit"))
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
        unit, counit = (
            {i: v for i, v in enumerate(map(f.parse, obj[key])) if not f.is_zero(v)}
            if key in obj else None
            for key in ("unit", "counit")
        )
        lie = obj.get("lie", False)
        if not isinstance(lie, bool):
            raise ValueError(f"algebra lie must be true or false, got {lie!r}")
        return AlgebraData(f, structure, unit, counit, lie)


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


def dual_numbers(field):
    """A = k[t]/(t^2), basis (1, t)."""
    f = field
    structure = [
        [{0: f.one}, {1: f.one}],
        [{1: f.one}, {}],
    ]
    return AlgebraData(f, structure, unit={0: f.one}, counit={0: f.one})


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


def _require_associative(A):
    """``validate`` proves associativity and the unit only when lie is false."""
    if A.lie:
        raise ValueError("the algebra must be associative with a unit, not Lie")


def _require_actions(mats, count, dim, name):
    """Refuse an action list ``name`` that is not ``count`` dim x dim matrices."""
    if len(mats) != count:
        raise ValueError(f"{name} must hold {count} matrices, one per basis "
                         f"element, got {len(mats)}")
    for i, M in enumerate(mats):
        if (M.nrows, M.ncols) != (dim, dim):
            raise ValueError(
                f"{name}[{i}] must be {dim}x{dim}, got {M.nrows}x{M.ncols}")


def _act(mats, x, dim, field):
    """sum_i x_i mats[i], the action of the algebra element x."""
    return place_blocks(dim, dim, field,
                        [(0, 0, mats[i].scale(c)) for i, c in x.items()])


class BimoduleData:
    """Bimodule over an associative algebra: left/right action matrices per
    algebra basis element."""

    def __init__(self, algebra, dim, left, right):
        self.algebra = algebra
        self.dim = dim
        self.left = left    # list of ExactMatrix, one per algebra basis index
        self.right = right
        self.validate()

    def validate(self):
        A = self.algebra
        _require_associative(A)
        f, n = A.field, self.dim
        _require_actions(self.left, A.dim, n, "left action")
        _require_actions(self.right, A.dim, n, "right action")
        ident = ExactMatrix.identity(n, f)
        if (_act(self.left, A.unit, n, f) != ident
                or _act(self.right, A.unit, n, f) != ident):
            raise ValueError("bimodule actions are not unital")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.mul_basis(i, j)
                if _act(self.left, prod, n, f) != self.left[i] @ self.left[j]:
                    raise ValueError(f"left action fails at ({i},{j})")
                # right action: m.(xy) = (m.x).y, i.e. R_(xy) = R_y R_x
                if _act(self.right, prod, n, f) != self.right[j] @ self.right[i]:
                    raise ValueError(f"right action fails at ({i},{j})")
                if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                    raise ValueError(f"left/right actions do not commute ({i},{j})")
        return True

    @staticmethod
    def regular(algebra):
        """A as a bimodule over itself: L_i e_j = e_i e_j is column i n + j
        of the product matrix, R_i e_j = e_j e_i column j n + i."""
        n, mu = algebra.dim, _multiplication(algebra)
        left = [mu.take_columns(range(i * n, (i + 1) * n)) for i in range(n)]
        right = [mu.take_columns(range(i, n * n, n)) for i in range(n)]
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
    and optional codegeneracies s_i: E^(n+1) -> E^n (0 <= i <= n).  An
    optional ``product`` maps a pair of levels (a, b) to the matrix
    E^a ox E^b -> E^(a+b) in the ``kron`` layout.  The relations (F), (S)
    and (SF) are not checked here: each builder certifies them by the laws
    validated on its inputs, as its docstring argues."""

    def __init__(self, field, dims, cofaces, codegens=None, product=None):
        self.field = field
        self.dims = list(dims)
        self.n_max = len(dims) - 1
        self.cofaces = cofaces      # cofaces[n][i]
        self.codegens = codegens    # codegens[n][i]: E^(n+1) -> E^n
        self.product = product


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
        # q^i f_i for i <= n; at i = n + 1, q^(n+1) for d_0 and -q^n for d_1
        coeffs = [f.pow(q, i) for i in range(n + 1)]
        coeffs.append(f.neg(coeffs[n]) if last_sign else f.pow(q, n + 1))
        maps[n] = place_blocks(E.dims[n + 1], E.dims[n], f, [
            (0, 0, M.scale(c)) for M, c in zip(E.cofaces[n], coeffs)])
    return GradedNComplex(
        N, f, {n: E.dims[n] for n in range(E.n_max + 1)}, maps,
        truncated_above=True,
    )


# -- Hochschild ---------------------------------------------------------------


def hochschild(A, M, n_max):
    """The cosimplicial module C^n(A, M) of M-valued Hochschild cochains.

    Level n is M ox (A*)^(ox n), of dimension dim(M) * dim(A)^n.  The cofaces
    are Kronecker products: f_0 and f_(n+1) let the first and the last
    argument act on the value (a sum over the basis e_i of A), f_k
    multiplies arguments k - 1 and k (the transpose of the product), and s_i
    inserts the unit at argument i.

    With M a bimodule over A itself, the relations hold by the laws that
    ``AlgebraData.validate`` and ``BimoduleData.validate`` checked (Loday,
    *Cyclic Homology*, 1.5.1).  Maps on disjoint tensor factors commute by
    the mixed-product identity (P ox Q)(R ox S) = PR ox QS; the pairs that
    share a factor are these:
    - (F) f_j f_i = f_i f_(j-1), i < j: two middle cofaces by associativity,
      f_1 f_0 = f_0 f_0 by L_(xy) = L_x L_y, f_(n+2) f_(n+1) =
      f_(n+1) f_(n+1) by R_(xy) = R_y R_x, and f_(n+2) f_0 = f_0 f_(n+1)
      because the left and right actions commute;
    - (S): unit insertions share no factor;
    - (SF) s_j f_j = s_j f_(j+1) = 1: by the unit laws of A in the middle,
      by unital actions at f_0 and f_(n+1); every other s_j f_i is
      f_i s_(j-1) (i < j) or f_(i-1) s_j (i > j + 1) on disjoint factors."""
    if M.algebra is not A:
        raise ValueError("M must be a bimodule over A")
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
    _require_actions(rep_mats, n, rep_dim, "rep_mats")
    for i in range(n):
        for j in range(n):
            comm = rep_mats[i] @ rep_mats[j] - rep_mats[j] @ rep_mats[i]
            if comm != _act(rep_mats, g.mul_basis(i, j), rep_dim, f):
                raise ValueError(f"representation property fails at ({i},{j})")

    subsets = {p: list(combinations(range(n), p)) for p in range(p_max + 2)}
    index = {p: {S: k for k, S in enumerate(subsets[p])} for p in subsets}
    dims = {p: len(subsets[p]) * rep_dim for p in range(p_max + 1)}

    # block (T, S) of d_p: the action terms (-1)^k pi(t_k) at S = T - t_k
    # and the bracket terms, scalar multiples of the identity
    minus_one = f.neg(f.one)
    ident = ExactMatrix.identity(rep_dim, f)
    maps = {}
    for p in range(p_max):
        pieces = []
        for T in subsets[p + 1]:
            row = index[p + 1][T] * rep_dim
            for k, tk in enumerate(T):
                act = rep_mats[tk] if k % 2 == 0 else rep_mats[tk].scale(minus_one)
                pieces.append((row, index[p][T[:k] + T[k + 1:]] * rep_dim, act))
            for r_i, s_i in combinations(range(p + 1), 2):
                rest = tuple(t for k2, t in enumerate(T) if k2 not in (r_i, s_i))
                base_sign = -1 if (r_i + s_i) % 2 else 1
                for c, v in g.mul_basis(T[r_i], T[s_i]).items():
                    arg, ins_sign = _merge_odd((c,), rest)
                    if arg is None:
                        continue
                    coeff = f.mul(f.from_rat(base_sign * ins_sign), v)
                    pieces.append((row, index[p][arg] * rep_dim, ident.scale(coeff)))
        maps[p] = place_blocks(dims[p + 1], dims[p], f, pieces)
    return GradedNComplex(2, f, dims, maps, truncated_above=(p_max < n))


# -- tensor algebra and envelopes ---------------------------------------------


def tensor_algebra(A, n_max):
    """T^n(A) = A^(ox (n+1)) with unit-insertion cofaces, multiplication
    codegeneracies and the concatenate-with-middle-product algebra structure:
    P_ab = I ox mu ox I multiplies the last factor of T^a by the first of
    T^b, built per pair (a, b) on first request.  Every call checks the
    multiplicative axioms (MF1), (MF2), (MS) up to level min(n_max, 3).

    With A associative and unital, the cosimplicial relations hold by the
    laws ``AlgebraData.validate`` checked: maps on disjoint tensor factors
    commute by (P ox Q)(R ox S) = PR ox QS, which gives (F) (unit
    insertions only), (S) for i < j and (SF) for i not in {j, j + 1};
    s_i s_i = s_i s_(i+1) is associativity, and s_j f_j = s_j f_(j+1) = 1
    are the unit laws."""
    _require_associative(A)
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

    @cache
    def product(a_deg, b_deg):
        return kron(one(a**a_deg), kron(mu, one(a**b_deg)))

    E = CosimplicialData(f, dims, cofaces, codegens, product=product)
    _check_multiplicative_axioms(E, min(n_max, 3))
    return E


def _check_multiplicative_axioms(E, cap):
    """(MF1), (MF2), (MS) for a + b + 2 <= cap + 1, one matrix identity on
    T^a ox T^b per law and index i.  The failure reported is the one on the
    first basis pair (the first nonzero column of any lhs - rhs), the first
    of MF1 by i, MF2, MS by i among the laws failing there."""
    f, P = E.field, E.product
    F, S = E.cofaces, E.codegens
    for a in range(cap):
        for b in range(cap - a):
            if a + b + 1 > E.n_max:
                continue
            n = a + b  # level of the product
            Ia = ExactMatrix.identity(E.dims[a], f)
            Ib = ExactMatrix.identity(E.dims[b], f)
            laws = [
                (f"(MF1) fails at i={i}", F[n][i] @ P(a, b),
                 P(a + 1, b) @ kron(F[a][i], Ib) if i <= a
                 else P(a, b + 1) @ kron(Ia, F[b][i - a]))
                for i in range(n + 2)
            ]
            # (MF2): f_(a+1)(alpha) beta = alpha f_0(beta)
            laws.append(("(MF2) fails", P(a + 1, b) @ kron(F[a][a + 1], Ib),
                         P(a, b + 1) @ kron(Ia, F[b][0])))
            laws += [
                (f"(MS) fails at i={i}", S[n - 1][i] @ P(a, b),
                 P(a - 1, b) @ kron(S[a - 1][i], Ib) if i < a
                 else P(a, b - 1) @ kron(Ia, S[b - 1][i - a]))
                for i in range(n)
            ]
            fails = [
                (col, k) for k, (_, lhs, rhs) in enumerate(laws)
                if (col := _first_nonzero_column(lhs - rhs)) is not None
            ]
            if fails:
                raise AssertionError(laws[min(fails)[1]][0])


def universal_envelope(A, n_max):
    """Omega(A), the universal differential envelope: the Omega_q(A) words at
    N = 2, q = -1, where d_1 = d_0 is the simplicial differential of T(A) and
    the words a_0 d(b_1) ... d(b_n) span the normalized cochains, the common
    kernel of the codegeneracies.  Checks that the inclusion into T(A) keeps
    the cohomology at every degree inside the window.

    Returns (complex-with-product, bases) in T(A) coordinates."""
    f = A.field
    T = tensor_algebra(A, n_max)
    D = d1(T, f.neg(f.one), 2)
    C, bases = _omega_q_words(A, T, D)
    Hf, Hs = graded_homology(D, ms=[1]), graded_homology(C, ms=[1])
    for n in range(n_max):
        if Hf.valid(n, 1) and Hs.valid(n, 1):
            if Hf[(n, 1)].dim_H != Hs[(n, 1)].dim_H:
                raise AssertionError(f"Omega(A) changed cohomology at degree {n}")
    return C, bases


def omega_q(A, q, N, n_max):
    """Omega_q(A), the universal q-differential envelope: the smallest
    d_1-stable subalgebra of (T(A), d_1) that contains A, from its normal
    form (Dubois-Violette and Kerner, Acta Math. Univ. Comenianae 65, 1996;
    Dubois-Violette, Contemp. Math. 219, 1998).

    Level n is spanned by the words a_0 d^(k_1)(b_1) ... d^(k_r)(b_r): a_0
    runs over the basis of A, each b_i over the basis vectors other than one
    index u where the unit is nonzero (a complement of k 1, as d(1) = 0), and
    (k_1, ..., k_r) over the compositions of n with parts in 1..N-1, so there
    are a sum (a-1)^r of them.  No closure pass runs; the certificate has
    three checks, each an explicit raise:
    - independence: the rank of the words of level n is their number;
    - d_1-stability: d_1 restricts from the words of level n into those of
      level n + 1;
    - W_n A in W_n: the product restricts from (words of level n) ox A into
      the words of level n.
    Their span W is then a subalgebra: every word is a product of generators
    in A and in d^k(b), W_n d^k(b) lies in W_(n+k) by construction and W_n A
    in W_n by the check, so W g lies in W for every generator g, and W W in W
    by associativity.  W contains A, is d_1-stable, and lies in every
    d_1-stable subalgebra that contains A, which holds each d^k(b) and their
    products: W is Omega_q(A) inside the window.

    T(A) is built by ``tensor_algebra``, so its relations and multiplicative
    axioms are validated.  Returns (complex-with-product, bases) in T(A)
    coordinates."""
    if check_assumptions(q, N, A.field) != "A1":
        raise ValueError("(A1) required")
    T = tensor_algebra(A, n_max)
    return _omega_q_words(A, T, d1(T, q, N))


def _omega_q_words(A, T, D):
    """The body of ``omega_q`` on a built T(A) and its d_1 = D.  With G_k =
    d^k of the complement columns, the words of level n are
    W_n = [P_(n-k,k) (W_(n-k) ox G_k) for k = 1..N-1]: each is a shorter word
    times its last letter d^k(b)."""
    f, n_max, a = T.field, T.n_max, A.dim
    u = min(t for t, c in A.unit.items() if not f.is_zero(c))
    ident = ExactMatrix.identity(a, f)
    G = [ident.take_columns([t for t in range(a) if t != u])]
    for k in range(1, min(D.N - 1, n_max) + 1):
        G.append(D.map(k - 1) @ G[k - 1])
    bases = [Subspace.full(a, f)]
    for n in range(1, n_max + 1):
        W = reduce(ExactMatrix.hstack, [
            T.product(n - k, k) @ kron(bases[n - k].basis, G[k])
            for k in range(1, min(D.N - 1, n) + 1)])
        bases.append(Subspace(T.dims[n], W))
        if bases[n].solver().rank != W.ncols:
            raise AssertionError(f"the Omega_q words of level {n} are dependent")
    maps = {}
    for n in range(n_max):
        maps[n] = restrict(D.map(n), bases[n], bases[n + 1])
        if maps[n] is None:
            raise AssertionError(f"d_1 moves a word of level {n} out of the words")
    product = _product_in_bases(
        T, bases, "the Omega_q words are not closed under the product")
    for n in range(n_max + 1):
        product(n, 0)  # W_n A in W_n, or the explicit raise of the product
    C = GradedNComplex(
        D.N, f, {n: B.dim for n, B in enumerate(bases)}, maps,
        truncated_above=True, product=product,
    )
    return C, bases


def _product_in_bases(T, bases, failure):
    """T's product in the coordinates of the level bases, built per pair
    (a, b) on first request: P_ab on kron(B_a, B_b), restricted into
    B_(a+b); raises AssertionError(failure) when a product leaves B_(a+b)."""

    @cache
    def product(a, b):
        pairs = Subspace(T.dims[a] * T.dims[b], kron(bases[a].basis, bases[b].basis))
        P = restrict(T.product(a, b), pairs, bases[a + b])
        if P is None:
            raise AssertionError(failure)
        return P

    return product


# -- verifiers ----------------------------------------------------------------


@dataclass
class TheoremReport:
    ok: bool
    details: dict


def ordinary_cohomology_dims(E, window):
    C = simplicial_differential(E)
    H = graded_homology(C, ms=[1])
    return {n: H[(n, 1)].dim_H for n in range(window + 1) if H.valid(n, 1)}


def theorem2_verify(E, q, N, window):
    """Check the placement pattern of the generalized cohomologies of
    (E, d_0) and (E, d_1) against the ordinary cohomology of E.  Building
    d_0 and d_1 certifies d_0^N = d_1^N = 0 inside the window (Lemma 5):
    each ``GradedNComplex`` validates on construction."""
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
    same for Omega_q(A).  One validated T(A) and one d_1 serve both sides:
    the Omega_q(A) words are built inside them."""
    if check_assumptions(q, N, A.field) != "A1":
        raise ValueError("(A1) required")
    T = tensor_algebra(A, window + N - 1)
    D = d1(T, q, N)
    details = {"T": {}, "Omega_q": {}}

    def acyclic(C, side, what):
        H, good = graded_homology(C), True
        for k in range(1, N):
            for n in range(0, window + 1):
                if not H.valid(n, k):
                    raise ValueError(f"window too small for {what}H^{n}_({k})")
                got = details[side][f"H^{n}_({k})"] = H[(n, k)].dim_H
                good = good and got == (1 if n == 0 else 0)
        return good

    ok = acyclic(D, "T", "")
    Oq, _ = _omega_q_words(A, T, D)
    ok = acyclic(Oq, "Omega_q", "Omega_q ") and ok
    return TheoremReport(ok, details)


def q_tensor_leibniz_witness(C, q):
    """Search for a pair witnessing that d on C ox C fails the graded
    q-Leibniz rule for the product (a ox b)(a' ox b') = q^(deg b deg a')
    (aa') ox (bb'); returns the witness description or None.  The square
    is validated as an N-complex: a q under which its d^N != 0 is refused."""
    T = _tensor_square(C, q)
    found = q_leibniz_failure(T, q)
    if found is None:
        return None
    n1, n2, col = found
    return {"degrees": (n1, n2), "indices": divmod(col, T.dims[n2])}


def _tensor_square(C, q):
    """C ox C (Z-graded) with the q-tensor differential and the product
    q^(s1 r2) (P ox P)(1 ox swap ox 1) on blocks C^r1 ox C^s1 and
    C^r2 ox C^s2, cut at the first degree whose differential is not
    determined (C's top degree when C is truncated above)."""
    if C.cyclic:
        raise ValueError("the tensor square needs a Z-graded complex")
    f = C.field
    idx = TensorIndex(C, C, False)
    dims, maps = {}, {}
    for n in sorted(idx.dims):
        dims[n] = idx.dims[n]
        d = tensor_differential(idx, q, n) if n + 1 in idx.dims else None
        if d is None:
            break
        maps[n] = d

    def one(k):
        return ExactMatrix.identity(C.dims[k], f)

    def block(n, off, width):
        """Coordinates of (C ox C)^n on one block: a width x dim matrix."""
        return ExactMatrix(
            width, dims[n], f, {(k, off + k): f.one for k in range(width)},
            _clean=False,
        )

    @cache
    def product(n1, n2):
        out = idx.layout[n1 + n2]
        pieces = []
        for (r1, s1), off1 in idx.layout[n1].items():
            for (r2, s2), off2 in idx.layout[n2].items():
                if (r1 + r2, s1 + s2) not in out:
                    continue
                swap = kron(one(r1), kron(commutation(C.dims[s1], C.dims[r2], f),
                                          one(s2)))
                local = kron(C.product(r1, r2), C.product(s1, s2)) @ swap
                picks = kron(block(n1, off1, C.dims[r1] * C.dims[s1]),
                             block(n2, off2, C.dims[r2] * C.dims[s2]))
                pieces.append((out[(r1 + r2, s1 + s2)], 0,
                               (local @ picks).scale(f.pow(q, s1 * r2))))
        return place_blocks(dims[n1 + n2], dims[n1] * dims[n2], f, pieces)

    return GradedNComplex(C.N, f, dims, maps, truncated_above=C.truncated_above,
                          product=product)
