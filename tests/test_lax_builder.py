"""Entry-level checks of the operator tables against hand-derived values."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import apply_gauge, gauge_matrix, parse_label
from hubbard_lax.aux_space import AuxVertex, build_aux_space
from hubbard_lax.algebra_verifier import check_xk_structure
from hubbard_lax.lax_builder import (
    LaxParams,
    RepresentationSingular,
    SQRT2,
    assemble_family,
    build_hatted,
    build_L,
    build_X,
    build_Y,
    xk_entries,
    xk_matrix,
)
from hubbard_lax.linalg import SPIN_LABELS

LAM = 0.43 - 0.17j
OM = 0.61 + 0.52j
U = 1.3
PARAMS = LaxParams(LAM, OM, U)
ENTRY_TOL = 1e-14


def entry(space, op, bra, ket):
    return op[space.index[parse_label(bra)], space.index[parse_label(ket)]]


@pytest.fixture(scope="module")
def fam():
    return assemble_family(4, PARAMS)


def test_s_plus_hops(fam):
    sp = fam.space
    assert abs(entry(sp, fam.S["+"], "0+", "1/2+") - SQRT2) < ENTRY_TOL
    assert abs(entry(sp, fam.S["+"], "1/2-", "1-") - SQRT2) < ENTRY_TOL


def test_s_minus_hops_alternate_sign(fam):
    sp = fam.space
    assert abs(entry(sp, fam.S["-"], "1/2+", "0+") - SQRT2) < ENTRY_TOL
    # k=1 carries the (-1)^k factor
    assert abs(entry(sp, fam.S["-"], "3/2+", "1+") + SQRT2) < ENTRY_TOL


def test_s_diagonals(fam):
    sp = fam.space
    assert abs(entry(sp, fam.S["z"], "0+", "0+")) < ENTRY_TOL
    assert abs(entry(sp, fam.S["z"], "1-", "1-") - LAM) < ENTRY_TOL
    assert abs(entry(sp, fam.S["0"], "0+", "0+") - 1.0) < ENTRY_TOL
    assert abs(entry(sp, fam.S["0"], "1/2-", "1/2-") - 1.0) < ENTRY_TOL


def test_t_from_reflection(fam):
    sp = fam.space
    assert abs(entry(sp, fam.T["+"], "0+", "1/2-") - SQRT2) < ENTRY_TOL
    assert abs(entry(sp, fam.T["0"], "1/2+", "1/2+") - 1.0) < ENTRY_TOL
    for s in "+-0z":
        assert np.allclose(fam.T[s], fam.G @ fam.S[s] @ fam.G, atol=ENTRY_TOL)


def test_x_half_integer_diagonal(fam):
    sp = fam.space
    assert abs(entry(sp, fam.X, "1/2+", "1/2+") - OM) < ENTRY_TOL
    assert abs(entry(sp, fam.X, "3/2-", "3/2-") + OM) < ENTRY_TOL


def test_x_block_entries(fam):
    sp = fam.space
    # block k=1 enters with an overall minus sign
    want = -(1.0 - (OM + U) * OM * (1.0 - LAM**2))
    assert abs(entry(sp, fam.X, "1-", "1+") - want) < ENTRY_TOL


def test_xk_initial_conditions():
    X0 = xk_matrix(0, PARAMS)
    assert X0[1, 1] == 1.0
    assert X0[0, 0] == -(OM * OM)
    assert X0[1, 0] == 0.0


def test_xk_structure_k_to_20():
    rep = check_xk_structure(PARAMS, k_max=20, tol=1e-12)
    assert rep["passed"], rep


def test_xk_structure_catches_wrong_entry(monkeypatch):
    """The exact check sees a relative error in one entry far below the
    float cancellation of the determinant at k = 20."""
    import hubbard_lax.algebra_verifier as av

    def wrong(k, lam, om, u):
        (x00, x01), (x10, x11) = xk_entries(k, lam, om, u)
        return (x00, x01), (x10 * (1 + Fraction(1, 10**9)), x11)

    monkeypatch.setattr(av, "xk_entries", wrong)
    rep = check_xk_structure(PARAMS, k_max=20, tol=1e-12)
    assert not rep["passed"]
    assert rep["det_max_rel"] > 1e-10


def test_x_inverse(fam):
    ident = fam.X_inv @ fam.X
    assert np.linalg.norm(ident - np.eye(fam.dim)) < 1e-13 * fam.dim


def test_x_inverse_block_determinant():
    space = build_aux_space(3)
    _, Xi, _ = build_X(space, PARAMS)
    i1, i2 = space.index[parse_label("1-")], space.index[parse_label("1+")]
    blk = np.array([[Xi[i1, i1], Xi[i1, i2]], [Xi[i2, i1], Xi[i2, i2]]])
    det = np.linalg.det(blk)
    assert abs(det - (-1.0 / OM**2)) < 1e-12


def test_singular_representation_refused():
    with pytest.raises(RepresentationSingular):
        assemble_family(3, LaxParams(0.5, 0.0, 1.0))


def test_y_diagonal(fam):
    sp = fam.space
    assert abs(entry(sp, fam.Y, "0+", "0+") - (-2 * LAM * U)) < ENTRY_TOL
    assert abs(entry(sp, fam.Y, "1/2-", "1/2-")) < ENTRY_TOL
    assert np.linalg.norm(fam.X @ fam.Y - fam.Y @ fam.X) < 1e-13


def test_hatted_shared_diagonals(fam):
    assert np.allclose(fam.SacuteX["0"], fam.XSgrave["0"], atol=ENTRY_TOL)
    assert np.allclose(fam.SacuteX["z"], fam.XSgrave["z"], atol=ENTRY_TOL)
    sp = fam.space
    assert abs(entry(sp, fam.SacuteX["z"], "1/2+", "1/2+") - 2.0) < ENTRY_TOL


def test_root_transfer_entry(fam):
    sp = fam.space
    assert abs(entry(sp, fam.L[("0", "0")], "0+", "0+") - 1.0) < ENTRY_TOL


def test_gauge_is_similarity(fam):
    xi = 0.7 + 0.2j
    D = gauge_matrix(fam.space, xi)
    gauged = apply_gauge(fam, xi)
    Dinv = np.linalg.inv(D)
    assert np.allclose(gauged.X, Dinv @ fam.X @ D, atol=1e-12)
    assert np.allclose(gauged.S["+"], Dinv @ fam.S["+"] @ D, atol=1e-12)


def test_bare_acute_grave_recover_products(fam):
    for s in "+-0z":
        assert np.allclose(fam.Sacute[s] @ fam.X, fam.SacuteX[s], atol=1e-10)
        assert np.allclose(fam.X @ fam.Sgrave[s], fam.XSgrave[s], atol=1e-10)


# ---------------------------------------------------------------------------
# the level-band builder against the dense construction it replaced

BAND_CUTOFFS = (2, 3, 5, 13)


def _random_params(rng):
    lam, om = (complex(*rng.normal(size=2)) for _ in range(2))
    return LaxParams(lam, om, float(rng.normal()))


def _reference_tables(K, params):
    """S, X, X^{-1} and G written entry by entry into dense tables, and every
    other table of the family by the same dense products as assemble_family,
    with L = S^s T^t X as the dense matmul: the construction before build_L."""
    space = build_aux_space(K)
    idx, lam, om = space.index, params.lam, params.omega
    zeros = lambda: np.zeros((space.dim, space.dim), dtype=complex)  # noqa: E731
    S = {s: zeros() for s in SPIN_LABELS}
    for k in range(K + 1):
        kp, khp, khm, k1m = (AuxVertex(2 * k, +1), AuxVertex(2 * k + 1, +1),
                             AuxVertex(2 * k + 1, -1), AuxVertex(2 * k + 2, -1))
        for s, bra, ket, val in (("+", kp, khp, SQRT2), ("+", khm, k1m, SQRT2),
                                 ("-", khp, kp, SQRT2 * (-1) ** k),
                                 ("-", k1m, khm, SQRT2 * (-1) ** k)):
            if bra in idx and ket in idx:
                S[s][idx[bra], idx[ket]] += val
    X, Xi, G = zeros(), zeros(), np.zeros((space.dim, space.dim))
    X[0, 0] = Xi[0, 0] = 1.0
    for v in space.vertices:
        i, m = idx[v], v.twice_level // 2
        even = m % 2 == 0
        if v.is_integer:
            S["0"][i, i], S["z"][i, i] = ((1.0, 0.0) if even else (0.0, 1.0)) if v.sign > 0 \
                else ((lam, 1.0) if even else (1.0, lam))
            G[i, i] = 1.0
        else:
            S["0"][i, i], S["z"][i, i] = ((1.0, lam) if even else (lam, 1.0)) if v.sign > 0 \
                else ((1.0, 0.0) if even else (0.0, 1.0))
            d = om * (-1) ** m
            X[i, i], Xi[i, i] = d, 1.0 / d
            G[idx[AuxVertex(v.twice_level, -v.sign)], i] = 1.0
    blocks = [xk_matrix(k, params) for k in range(K + 1)]
    for k, b in enumerate(blocks[1:], 1):
        i = [idx[AuxVertex(2 * k, sign)] for sign in (-1, +1)]
        adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
        X[np.ix_(i, i)] = (-1) ** k * b
        Xi[np.ix_(i, i)] = adj / (-om**2) * (-1) ** k
    Y = build_Y(space, params)
    SacX, XSgr = build_hatted(space, params, blocks)
    T, TacX, XTgr = ({t: G @ D[t] @ G for t in SPIN_LABELS} for D in (S, SacX, XSgr))
    Sac, Tac = ({s: D[s] @ Xi for s in SPIN_LABELS} for D in (SacX, TacX))
    Sgr, Tgr = ({s: Xi @ D[s] for s in SPIN_LABELS} for D in (XSgr, XTgr))
    L, Ltilde = {}, {}
    for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS):
        ST = S[s] @ T[t]
        L[s, t] = ST @ X
        Ltilde[s, t] = 0.5 * (
            S[s] @ Tac[t] + T[t] @ Sac[s] + Sgr[s] @ T[t] + Tgr[t] @ S[s] - Y @ ST - ST @ Y
        ) @ X
    return dict(G=G, S=S, T=T, X=X, X_blocks=blocks, X_inv=Xi, Y=Y, SacuteX=SacX,
                XSgrave=XSgr, TacuteX=TacX, XTgrave=XTgr, Sacute=Sac, Sgrave=Sgr,
                Tacute=Tac, Tgrave=Tgr, L=L, Ltilde=Ltilde)


@pytest.mark.parametrize("K", BAND_CUTOFFS)
def test_band_builder_matches_dense_product(K):
    """build_L against L = S^s T^t X from dense matmuls: the same nonzero
    pattern, and every entry within 1e-15 of the component's largest."""
    rng = np.random.default_rng(K)
    for _ in range(4):
        params = _random_params(rng)
        ref = _reference_tables(K, params)["L"]
        band = build_L(build_aux_space(K), params)
        assert list(band) == list(ref)
        for st, (rows, cols, vals) in band.items():
            got = np.zeros_like(ref[st])
            got[rows, cols] = vals
            assert np.array_equal(got != 0, ref[st] != 0), st
            assert np.abs(got - ref[st]).max() <= 1e-15 * np.abs(ref[st]).max(), st


@pytest.mark.parametrize("K", BAND_CUTOFFS)
def test_family_tables_besides_L_unchanged(K):
    """Every table of assemble_family but L, byte for byte as the dense
    construction made it; L is the band's, laid out dense."""
    rng = np.random.default_rng(100 + K)
    for _ in range(4):
        params = _random_params(rng)
        fam, ref = assemble_family(K, params), _reference_tables(K, params)
        band = build_L(fam.space, params)
        for name, want in ref.items():
            got = getattr(fam, name)
            if name == "L":
                for st, (rows, cols, vals) in band.items():
                    assert np.array_equal(np.flatnonzero(got[st]), rows * fam.dim + cols)
                    assert np.array_equal(got[st][rows, cols], vals)
                continue
            pairs = zip(got.values(), want.values()) if isinstance(want, dict) else \
                zip(got, want) if isinstance(want, list) else [(got, want)]
            for a, b in pairs:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_band_builder_keeps_non_finite_entries():
    # an entry of X past the float range reaches the band, for its caller to
    # refuse, without a numpy warning
    with np.errstate(all="raise"):
        band = build_L(build_aux_space(3), LaxParams(0.5, 0.5j, 1e308))
    assert not all(np.isfinite(vals).all() for _, _, vals in band.values())
