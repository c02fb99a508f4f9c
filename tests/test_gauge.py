import hashlib
import json
import random

import pytest

from ncomplex.cosimplicial import group_algebra_cyclic, truncated_polynomials
from ncomplex.fields import QQ, make_cyclotomic
from ncomplex.gauge import (
    GaugeCochains,
    GaugeInstance,
    extend,
    filtration_f0_dim,
    lemma15_check,
    random_gauge_instance,
    spin1_complex,
    spin2_complex,
    spin_complex_report,
    theorem5_verify,
    theorem6_verify,
    two_particle_study,
    wznw_shaped_instance,
)
from ncomplex.linalg import ExactMatrix, Subspace, image_basis


def z2_setup(N=3):
    f = make_cyclotomic(2 * N)
    U = group_algebra_cyclic(f, 2)
    act = [
        ExactMatrix.identity(2, f),
        ExactMatrix.from_rows([[f.one, f.zero], [f.zero, f.neg(f.one)]], f),
    ]
    A = ExactMatrix.zeros(2, 2, f)
    HI = image_basis(ExactMatrix.from_columns([{0: f.one}], 2, f))
    return f, U, act, GaugeInstance(N, A, HI, f.zeta())


def synthetic_setup(N=3):
    """U = k[s]/(s^4) acting on k^2 by the shift; A = the shift itself."""
    f = make_cyclotomic(2 * N)
    U = truncated_polynomials(f, 4)
    S = ExactMatrix.from_rows([[f.zero, f.one], [f.zero, f.zero]], f)
    act = [
        ExactMatrix.identity(2, f),
        S,
        ExactMatrix.zeros(2, 2, f),
        ExactMatrix.zeros(2, 2, f),
    ]
    HI = image_basis(ExactMatrix.from_columns([{0: f.one}], 2, f))
    return f, U, act, GaugeInstance(N, S, HI, f.zeta())


def test_gauge_instance_validation():
    f = make_cyclotomic(6)
    A = ExactMatrix.identity(2, f)
    with pytest.raises(ValueError, match="A"):
        GaugeInstance(3, A, Subspace.full(2, f), f.zeta())
    # q without q^2 primitive
    with pytest.raises(ValueError, match="primitive"):
        GaugeInstance(3, ExactMatrix.zeros(2, 2, f), Subspace.full(2, f), f.one)
    # unstable H_I
    S = ExactMatrix.from_rows([[f.zero, f.one], [f.zero, f.zero]], f)
    bad = Subspace(2, ExactMatrix.from_columns([{1: f.one}], 2, f))
    with pytest.raises(ValueError, match="stable"):
        GaugeInstance(3, S, bad, f.zeta())


def test_extend_trivial_cases():
    f = make_cyclotomic(6)
    A = ExactMatrix.zeros(3, 3, f)
    # H_I = H: quotient levels vanish, Q = A
    G = GaugeInstance(3, A, Subspace.full(3, f), f.zeta())
    ext = extend(G)
    assert ext.Q.dim == 3
    assert theorem5_verify(G)["ok"]
    # H_I = 0, A = 0
    G2 = GaugeInstance(3, A, Subspace.zero(3, f), f.zeta())
    assert theorem5_verify(G2)["ok"]


def test_extend_validates_structure():
    # extend() internally asserts Ad = q^2 dA, Q^N = 0 and Lemma 12
    rng = random.Random(0)
    f = make_cyclotomic(6)
    for _ in range(5):
        G = random_gauge_instance(f, 3, rng, hmax=10)
        extend(G)


def test_extend_rejects_non_nilpotent_a():
    # A = E_11 commutes with d as A d = q^2 d A demands, but A^3 != 0; the
    # block certificate (G.A^N and Abar^N) must still catch it.
    f = make_cyclotomic(6)
    A = ExactMatrix(2, 2, f, {(1, 1): f.one})
    HI = image_basis(ExactMatrix.from_columns([{0: f.one}], 2, f))
    G = GaugeInstance(3, A, HI, f.zeta(), check=False)
    with pytest.raises(AssertionError, match=r"A\^N != 0 on H-bullet"):
        extend(G)


def test_theorem5_random_small():
    rng = random.Random(7)
    for _ in range(12):
        N = rng.choice((3, 4, 5))
        f = make_cyclotomic(2 * N)
        G = random_gauge_instance(f, N, rng, hmax=12)
        assert theorem5_verify(G)["ok"]


def test_theorem5_wznw_shape():
    rng = random.Random(9)
    G = wznw_shaped_instance(3, rng)
    assert G.dim == 81 and G.HI.dim == 5
    rep = theorem5_verify(G)
    assert rep["ok"]
    assert rep["dims"][1] == (1, 1)


def test_gauge_cochains_z2():
    f, U, act, G = z2_setup()
    C = GaugeCochains(U, act, G, 4)  # validates the d_1 cross-check inline
    assert C.prop8_check()["ok"]
    assert lemma15_check(C, random.Random(1))


def test_gauge_cochains_rejects_mismatched_hi():
    f, U, act, _ = z2_setup()
    A = ExactMatrix.zeros(2, 2, f)
    wrong = GaugeInstance(3, A, Subspace.full(2, f), f.zeta())
    with pytest.raises(ValueError, match="invariant"):
        GaugeCochains(U, act, wrong, 3)


def test_gauge_cochains_rejects_a_non_action():
    # the bimodule checks of BimoduleData.from_left_action guard the action
    f, U, act, G = z2_setup()
    flip = act[1]
    with pytest.raises(ValueError, match="not unital"):
        GaugeCochains(U, [flip, flip], G, 3)
    with pytest.raises(ValueError, match="left action fails"):
        GaugeCochains(U, [act[0], flip.scale(f.from_rat(2))], G, 3)


def _digest(mats):
    return hashlib.sha256(
        json.dumps([M.to_json() for M in mats], sort_keys=True).encode()
    ).hexdigest()


def test_assembled_matrices_match_hand_indexed_digests():
    # sha256 of the matrices' to_json, recorded from the hand-indexed
    # assembly that kron and place_blocks replaced
    f, U, act, G = z2_setup()
    C = GaugeCochains(U, act, G, 4)
    assert _digest([C.d, C.A]) == (
        "0965fc377b16561a2fbb5d53b98f6a6ce4c7f3a6907d886b7e76b2669eb629fb")
    # criterion 12's second example, the only one with A != 0
    f, U, act, G = synthetic_setup()
    C = GaugeCochains(U, act, G, 4)
    assert _digest([C.d, C.A]) == (
        "e3a1374a1668fda8c2a68ddbf8b05743e2e38f7f54071c016a7fb037be3100e7")
    # criterion 11's instance 0
    rng = random.Random("42:gauge:0")
    N = rng.choice((3, 4, 5))
    ext = extend(random_gauge_instance(make_cyclotomic(2 * N), N, rng, hmax=20))
    assert _digest([ext.d, ext.A]) == (
        "79da668f2aa1480c3d274892f9b2a0ffd0520d48fc3569b3c8018381517b52e2")


def test_lemma15_synthetic():
    f, U, act, G = synthetic_setup()
    C = GaugeCochains(U, act, G, 4)
    assert C.prop8_check()["ok"]
    assert lemma15_check(C, random.Random(3))


def test_theorem6_z2():
    f, U, act, G = z2_setup()
    rep = theorem6_verify(U, act, G)
    assert rep["ok"]
    for k, entry in rep["per_k"].items():
        assert entry["F0"] == entry["H_(k)(HI,A)"] == 1
        assert entry["F0_at_window+1"] == entry["F0"]


def test_theorem6_builds_each_window_once(monkeypatch):
    """Windows N + k + 1 and N + (k + 1) coincide: at N = 3 the windows 4, 5
    and 6 are built once each, and the report is the one of four builds."""
    windows = []
    init = GaugeCochains.__init__

    def counted(self, U, action, G, n_max):
        windows.append(n_max)
        init(self, U, action, G, n_max)

    monkeypatch.setattr(GaugeCochains, "__init__", counted)
    f, U, act, G = synthetic_setup()
    rep = theorem6_verify(U, act, G)
    assert windows == [4, 5, 6]
    assert rep["per_k"] == {
        1: {"F0": 1, "H_(k)(HI,A)": 1, "window": 4, "method": "A^P = 0",
            "F0_at_window+1": 1},
        2: {"F0": 1, "H_(k)(HI,A)": 1, "window": 5,
            "method": "sandwich (certificates at level 2)",
            "F0_at_window+1": 1},
    }


def test_theorem6_synthetic():
    f, U, act, G = synthetic_setup()
    rep = theorem6_verify(U, act, G)
    assert rep["ok"]
    assert rep["per_k"][2]["method"].startswith("sandwich")


def test_theorem6_trivial_algebra():
    # U = k: C^0 = H and F^0 H_(k) = H_(k)(H, A)
    from ncomplex.cosimplicial import field_algebra

    f = make_cyclotomic(6)
    U = field_algebra(f)
    S = ExactMatrix.from_rows([[f.zero, f.one], [f.zero, f.zero]], f)
    act = [ExactMatrix.identity(2, f)]
    G = GaugeInstance(3, S, Subspace.full(2, f), f.zeta())
    rep = theorem6_verify(U, act, G)
    assert rep["ok"]


def test_spin1_report():
    f4 = make_cyclotomic(4)
    rep = spin_complex_report(1, (1, 1, 0, 0), f4.zeta(), f4)
    assert rep["hermitian"]
    assert rep["H_dims"] == {-1: 0, 0: 2, 1: 0}
    # alpha-independence
    rep2 = spin_complex_report(1, (1, 1, 0, 0), QQ.one, QQ)
    assert rep2["hermitian"] and rep2["H_dims"] == rep["H_dims"]


def test_spin2_report():
    f4 = make_cyclotomic(4)
    rep = spin_complex_report(2, (1, 1, 0, 0), f4.zeta(), f4)
    assert rep["hermitian"]
    assert (rep["C0"], rep["Z"], rep["B"]) == (10, 6, 4)
    assert rep["H_dims"] == {-1: 0, 0: 2, 1: 0}


def test_spin_rejects_off_cone():
    f4 = make_cyclotomic(4)
    with pytest.raises(ValueError):
        spin1_complex((1, 0, 0, 0), f4.zeta(), f4)
    with pytest.raises(ValueError):
        spin2_complex((-1, 1, 0, 0), f4.zeta(), f4)


def test_two_particle():
    rep = two_particle_study((1, 1, 0, 0), (1, 0, 1, 0))
    assert rep["ok"]
    assert rep["dims"] == {1: 9, 2: 9}
    with pytest.raises(ValueError):
        two_particle_study((1, 1, 0, 0), (1, 1, 0, 0))


def test_two_particle_matches_green_ansatz():
    # the study is built on green_tensor; verify the matrix agrees with the
    # hand-made Kronecker sum
    from ncomplex.fields import rat
    from ncomplex.ndiff import NDiffModule, green_tensor

    f = QQ

    def qmat(p):
        low = [rat(x) * rat(g) for x, g in zip(p, (1, -1, -1, -1))]
        ent = {}
        for m in range(4):
            for n in range(4):
                v = low[m] * rat(p[n])
                if v:
                    ent[(m, n)] = v
        return ExactMatrix(4, 4, f, ent)

    Q1, Q2 = qmat((1, 1, 0, 0)), qmat((1, 0, 1, 0))
    T = green_tensor(NDiffModule(2, Q1), NDiffModule(2, Q2))
    ent = {}
    for (r, c), v in Q1.entries.items():
        for j in range(4):
            ent[(r * 4 + j, c * 4 + j)] = v
    for (r, c), v in Q2.entries.items():
        for i in range(4):
            key = (i * 4 + r, i * 4 + c)
            ent[key] = f.add(ent.get(key, f.zero), v)
    assert T.d == ExactMatrix(16, 16, f, ent)


def test_gauge_json_roundtrip():
    rng = random.Random(11)
    f = make_cyclotomic(6)
    G = random_gauge_instance(f, 3, rng, hmax=8)
    obj = G.to_json()
    G2 = GaugeInstance.from_json(obj)
    assert G2.to_json() == obj


def test_lemma13_universal_extension():
    # any degree-0 map preserving H_I extends uniquely: the forced extension
    # [v] -> d^n(alpha v) is well-defined, i.e. d^n alpha kills H_I
    f, U, act, G = synthetic_setup()
    C = GaugeCochains(U, act, G, 4)
    rng = random.Random(17)
    for _ in range(3):
        # random alpha: H -> H with alpha(H_I) <= H_I
        ent = {
            (r, c): f.from_rat(rng.randint(-2, 2))
            for r in range(2) for c in range(2)
        }
        alpha = ExactMatrix(2, 2, f, ent)
        # force H_I-preservation: project the image of the H_I column
        col = G.HI.basis.column(0)
        img = alpha.apply(col)
        if not G.HI.contains(img):
            # replace alpha by alpha composed with the H_I projector shift
            coeffs = G.HI.basis.columns()[0]
            alpha = alpha - ExactMatrix(2, 2, f, {
                (r, c): f.mul(img.get(r, f.zero), col.get(c, f.zero))
                for r in range(2) for c in range(2)
            })
            assert G.HI.contains(alpha.apply(col))
        for b in G.HI.basis.columns():
            vec = alpha.apply(b)
            for n in range(1, C.N):
                vec = C.d.apply(vec)
                # the forced extension is well-defined iff these vanish
                assert not vec
