"""Residual checks of the defining operator identities at random parameters."""

import itertools

import numpy as np
import pytest

from hubbard_lax.algebra_verifier import (
    ALL_CHECKS,
    EDGE_MARGIN,
    check_gLOD,
    check_id1,
    check_id2,
    sample_params,
    verify_family,
    verify_suite,
)
from conftest import apply_gauge
from hubbard_lax.lax_builder import LaxParams, assemble_family
from hubbard_lax.hubbard_model import h_bond
from hubbard_lax.linalg import PAULI, SPIN_LABELS, local4
from hubbard_lax.ness_engine import contract_omega

REL_TOL = 1e-10


def test_random_samples_all_identities():
    reports = verify_suite(num_samples=3, cutoffs=(3, 4), seed=11)
    for r in reports:
        assert r.passed, f"{r.identity_name} at {r.params}: {r.residual_fro / r.operand_scale:.3e}"


def test_special_point_lambda_zero():
    for r in verify_family(LaxParams(0.0, 0.8 + 0.3j, 1.0), 3):
        assert r.passed, r.identity_name


def test_special_point_u_zero():
    for r in verify_family(LaxParams(0.45 - 0.6j, 0.8 + 0.25j, 0.0), 3):
        assert r.passed, r.identity_name


def test_residuals_cutoff_independent():
    """Edge-restricted residuals stay at machine precision as K grows."""
    p = sample_params(1, seed=3)[0]
    rel = []
    for K in (3, 4, 5):
        r = check_gLOD(assemble_family(K + 2, p), target_K=K)
        rel.append(r.residual_fro / r.operand_scale)
    assert max(rel) < 1e-12


def test_sigma_tau_divergences_mirror():
    """The two single-species relations are reflections of each other:
    both residuals vanish and their operand scales coincide."""
    p = sample_params(1, seed=8)[0]
    fam = assemble_family(5, p)
    r1, r2 = check_id1(fam, target_K=3), check_id2(fam, target_K=3)
    assert r1.passed and r2.passed
    assert np.isclose(r1.operand_scale, r2.operand_scale, rtol=1e-10)


def test_gauge_invariance():
    """Conjugating the whole family by the sign gauge leaves every residual
    at machine precision."""
    p = sample_params(1, seed=21)[0]
    fam = apply_gauge(assemble_family(5, p), 0.6 - 0.35j)
    for chk in ALL_CHECKS:
        r = chk(fam, target_K=3)
        assert r.passed, f"{r.identity_name} broke under gauge"


def test_single_site_transfer_is_identity():
    p = sample_params(1, seed=4)[0]
    fam = assemble_family(2, p)
    om = contract_omega(fam, 1)
    assert np.allclose(om, np.eye(4), atol=1e-13)


# ---------------------------------------------------------------------------
# kron reference for the site-tensor checks: every component lifted into an
# (aux x phys) matrix, both sides cut to levels <= K by a projector

def _projected(fam, K, nphys):
    keep = fam.space.levels() <= K + 1e-9
    Pf = np.kron(np.diag(keep.astype(float)), np.eye(nphys))
    return lambda M: Pf @ M @ Pf


def _kron_divergence(fam, ops, acuteX, Xgrave, K):
    kr = np.kron
    da = fam.dim
    A12 = np.zeros((da * 4, da * 4), dtype=complex)
    rhs = np.zeros_like(A12)
    for s, s2 in itertools.product(SPIN_LABELS, SPIN_LABELS):
        phys = kr(PAULI[s], PAULI[s2])
        A12 += kr(ops[s] @ fam.X @ ops[s2], phys)
        rhs += kr(acuteX[s] @ ops[s2] - ops[s] @ Xgrave[s2], phys)
    hf = kr(np.eye(da), 2.0 * (local4("+", "-") + local4("-", "+")))
    P = _projected(fam, K, 4)
    res = np.linalg.norm(P(hf @ A12 - A12 @ hf - rhs))
    return res, max(np.linalg.norm(P(hf @ A12)), np.linalg.norm(P(rhs)))


def _kron_gLOD(fam, K):
    kr = np.kron
    da = fam.dim
    I4 = np.eye(4)
    L1, L2, Lt1, Lt2 = (np.zeros((da * 16, da * 16), dtype=complex) for _ in range(4))
    for st, Lm in fam.L.items():
        p4 = local4(*st)
        L1 += kr(Lm, kr(p4, I4))
        L2 += kr(Lm, kr(I4, p4))
        Lt1 += kr(fam.Ltilde[st], kr(p4, I4))
        Lt2 += kr(fam.Ltilde[st], kr(I4, p4))
    Yf = kr(fam.Y, np.eye(16))
    hf = kr(np.eye(da), h_bond(fam.params.u))
    L1L2 = L1 @ L2
    rhs = (Lt1 + Yf @ L1) @ L2 - L1 @ (Lt2 + L2 @ Yf)
    P = _projected(fam, K, 16)
    res = np.linalg.norm(P(hf @ L1L2 - L1L2 @ hf - rhs))
    return res, max(np.linalg.norm(P(hf @ L1L2)), np.linalg.norm(P(rhs)))


@pytest.mark.parametrize("K", [3, 4])
def test_site_tensor_checks_match_kron_reference(K):
    """The divergence checks contract site tensors between the rows of the
    level <= K prefix; the same numbers follow from kron-lifted matrices and
    a level projector."""
    points = sample_params(3, seed=42) + [
        LaxParams(0.0, 0.9 + 0.35j, 1.0),
        LaxParams(0.45 - 0.6j, 0.8 + 0.25j, 0.0),
    ]
    for p in points:
        fam = assemble_family(K + EDGE_MARGIN, p)
        cases = [
            (check_id1, _kron_divergence(fam, fam.S, fam.SacuteX, fam.XSgrave, K)),
            (check_id2, _kron_divergence(fam, fam.T, fam.TacuteX, fam.XTgrave, K)),
            (check_gLOD, _kron_gLOD(fam, K)),
        ]
        for chk, (res, scale) in cases:
            r = chk(fam, target_K=K)
            assert abs(r.residual_fro - res) <= 1e-14 * scale, (chk.__name__, p)
            assert abs(r.operand_scale - scale) <= 1e-12 * scale, (chk.__name__, p)
            assert r.passed == (res <= r.tol * scale)
