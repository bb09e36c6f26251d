"""Entry-level checks of the operator tables against hand-derived values."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import apply_gauge, gauge_matrix, parse_label
from hubbard_lax.aux_space import build_aux_space
from hubbard_lax.algebra_verifier import check_xk_structure
from hubbard_lax.lax_builder import (
    LaxParams,
    RepresentationSingular,
    SQRT2,
    assemble_family,
    build_X,
    xk_entries,
    xk_matrix,
)

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
