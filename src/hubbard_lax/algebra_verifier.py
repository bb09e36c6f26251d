"""Residual checks for the defining operator identities.

Every check builds nothing itself: it takes an assembled LaxFamily (built at
cutoff K + EDGE_MARGIN) and measures the Frobenius residual of one identity
after projecting both sides onto auxiliary levels <= K. Truncation corrupts
the last couple of levels only, since every factor in any checked expression
shifts the level by at most one.

Identity names used in reports:

- divergence_sigma / divergence_tau: the single-species divergence relations
  for S (resp. T) with the free hopping of that species,
- mixed_divergence: the mixed relation tying acute/grave operators to the
  commutator with Y - u sz tz,
- species_commutation: [S^s, T^t] = 0,
- interaction_spectral_commutation: [X, Y] = 0,
- bond_divergence: the full two-site divergence of L with the bond
  Hamiltonian,
- center_condition: {S+, S-} central among all S and T components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lax_builder import LaxFamily, LaxParams, assemble_family
from .linalg import PAULI, SPIN_LABELS, local4
from .hubbard_model import h_bond

DEFAULT_TOL = 1e-10
EDGE_MARGIN = 2

_HOP2 = 2.0 * (np.kron(PAULI["+"], PAULI["-"]) + np.kron(PAULI["-"], PAULI["+"]))


@dataclass
class ResidualReport:
    identity_name: str
    params: LaxParams
    cutoff_K: int
    residual_fro: float
    residual_max: float
    operand_scale: float
    passed: bool
    tol: float = DEFAULT_TOL

    def as_dict(self) -> dict:
        return {
            "identity": self.identity_name,
            "lambda": [self.params.lam.real, complex(self.params.lam).imag],
            "omega": [complex(self.params.omega).real, complex(self.params.omega).imag],
            "u": self.params.u,
            "cutoff_K": self.cutoff_K,
            "residual_fro": self.residual_fro,
            "residual_max": self.residual_max,
            "operand_scale": self.operand_scale,
            "tolerance": self.tol,
            "passed": bool(self.passed),
        }


def _target_K(fam: LaxFamily, target_K) -> int:
    if target_K is None:
        target_K = fam.space.cutoff_K - EDGE_MARGIN
    if target_K < 1:
        raise ValueError("family cutoff too small for edge-projected check")
    return target_K


def _finish(name, fam, K, diff, scale, tol) -> ResidualReport:
    fro = float(np.linalg.norm(diff))
    mx = float(np.max(np.abs(diff))) if diff.size else 0.0
    scale = float(max(scale, 1e-300))
    return ResidualReport(
        identity_name=name, params=fam.params, cutoff_K=K,
        residual_fro=fro, residual_max=mx, operand_scale=scale,
        passed=bool(fro <= tol * scale), tol=tol,
    )


def check_id1(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Divergence relation for the S species with its free hopping."""
    return _divergence(fam, fam.S, fam.SacuteX, fam.XSgrave,
                       "divergence_sigma", target_K, tol)


def check_id2(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Same relation for T (the reflection conjugate of check_id1)."""
    return _divergence(fam, fam.T, fam.TacuteX, fam.XTgrave,
                       "divergence_tau", target_K, tol)


def _divergence(fam, ops, acuteX, Xgrave, name, target_K, tol):
    K = _target_K(fam, target_K)
    da = fam.dim
    kr = np.kron
    A12 = np.zeros((da * 4, da * 4), dtype=complex)
    rhs = np.zeros_like(A12)
    for s, s2 in itertools.product(SPIN_LABELS, SPIN_LABELS):
        phys = kr(PAULI[s], PAULI[s2])
        A12 += kr(ops[s] @ fam.X @ ops[s2], phys)
        rhs += kr(acuteX[s] @ ops[s2] - ops[s] @ Xgrave[s2], phys)
    hf = kr(np.eye(da), _HOP2)
    lhs = hf @ A12 - A12 @ hf
    Pf = kr(fam.space.level_projector(K), np.eye(4))
    diff = Pf @ (lhs - rhs) @ Pf
    scale = max(np.linalg.norm(Pf @ (hf @ A12) @ Pf), np.linalg.norm(Pf @ rhs @ Pf))
    return _finish(name, fam, K, diff, scale, tol)


def check_id3(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Mixed divergence: sum_st (S T' + T S' - `S T - `T S) sigma^s tau^t
    equals [Y - u sz tz, sum_st S T sigma^s tau^t] on one ladder site."""
    K = _target_K(fam, target_K)
    da = fam.dim
    kr = np.kron
    groups = [np.zeros((da * 4, da * 4), dtype=complex) for _ in range(4)]
    ST = np.zeros_like(groups[0])
    for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS):
        phys = local4(s, t)
        groups[0] += kr(fam.S[s] @ fam.Tacute[t], phys)
        groups[1] += kr(fam.T[t] @ fam.Sacute[s], phys)
        groups[2] += kr(fam.Sgrave[s] @ fam.T[t], phys)
        groups[3] += kr(fam.Tgrave[t] @ fam.S[s], phys)
        ST += kr(fam.S[s] @ fam.T[t], phys)
    lhs = groups[0] + groups[1] - groups[2] - groups[3]
    W = kr(fam.Y, np.eye(4)) - fam.params.u * kr(np.eye(da), local4("z", "z"))
    rhs = W @ ST - ST @ W
    Pf = kr(fam.space.level_projector(K), np.eye(4))
    diff = Pf @ (lhs - rhs) @ Pf
    # Scale from the un-cancelled product groups: the combined sides may
    # vanish identically (both do at u = 0).
    scale = max(np.linalg.norm(Pf @ g @ Pf) for g in groups)
    scale = max(scale, np.linalg.norm(Pf @ (W @ ST) @ Pf))
    return _finish("mixed_divergence", fam, K, diff, scale, tol)


def check_id4(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """[S^s, T^t] = 0 for all sixteen pairs (edge-projected)."""
    K = _target_K(fam, target_K)
    P = fam.space.level_projector(K)
    worst = np.zeros_like(fam.S["+"])
    scale = 0.0
    for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS):
        c = P @ (fam.S[s] @ fam.T[t] - fam.T[t] @ fam.S[s]) @ P
        scale = max(scale, float(np.linalg.norm(P @ (fam.S[s] @ fam.T[t]) @ P)))
        if np.linalg.norm(c) > np.linalg.norm(worst):
            worst = c
    return _finish("species_commutation", fam, K, worst, scale, tol)


def check_id5(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """[X, Y] = 0 (both are level-local)."""
    K = _target_K(fam, target_K)
    P = fam.space.level_projector(K)
    diff = P @ (fam.X @ fam.Y - fam.Y @ fam.X) @ P
    scale = max(np.linalg.norm(fam.X), np.linalg.norm(fam.Y))
    return _finish("interaction_spectral_commutation", fam, K, diff, scale, tol)


def check_gLOD(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """Two-site divergence of the transfer components against the bond
    Hamiltonian: [h_12, L1 L2] = (Lt1 + Y L1) L2 - L1 (Lt2 + L2 Y)."""
    K = _target_K(fam, target_K)
    da = fam.dim
    kr = np.kron
    I4 = np.eye(4)
    L1 = np.zeros((da * 16, da * 16), dtype=complex)
    L2 = np.zeros_like(L1)
    Lt1 = np.zeros_like(L1)
    Lt2 = np.zeros_like(L1)
    for st, Lm in fam.L.items():
        p4 = local4(*st)
        L1 += kr(Lm, kr(p4, I4))
        L2 += kr(Lm, kr(I4, p4))
        Lt1 += kr(fam.Ltilde[st], kr(p4, I4))
        Lt2 += kr(fam.Ltilde[st], kr(I4, p4))
    Yf = kr(fam.Y, np.eye(16))
    hf = kr(np.eye(da), h_bond(fam.params.u))
    L1L2 = L1 @ L2
    lhs = hf @ L1L2 - L1L2 @ hf
    rhs = (Lt1 + Yf @ L1) @ L2 - L1 @ (Lt2 + L2 @ Yf)
    Pf = kr(fam.space.level_projector(K), np.eye(16))
    diff = Pf @ (lhs - rhs) @ Pf
    scale = max(np.linalg.norm(Pf @ (hf @ L1L2) @ Pf), np.linalg.norm(Pf @ rhs @ Pf))
    return _finish("bond_divergence", fam, K, diff, scale, tol)


def check_center(fam: LaxFamily, target_K=None, tol=DEFAULT_TOL) -> ResidualReport:
    """{S+, S-} commutes with every S^s and T^t (projected one level in)."""
    K = _target_K(fam, target_K)
    P = fam.space.level_projector(K)
    C = fam.S["+"] @ fam.S["-"] + fam.S["-"] @ fam.S["+"]
    worst = 0.0
    worst_mat = np.zeros_like(C)
    for ops in (fam.S, fam.T):
        for s in SPIN_LABELS:
            d = P @ (C @ ops[s] - ops[s] @ C) @ P
            r = np.linalg.norm(d)
            if r > worst:
                worst, worst_mat = r, d
    scale = max(np.linalg.norm(P @ C @ P), 1.0)
    return _finish("center_condition", fam, K, worst_mat, scale, tol)


ALL_CHECKS = (
    check_id1,
    check_id2,
    check_id3,
    check_id4,
    check_id5,
    check_gLOD,
    check_center,
)


def check_xk_structure(params: LaxParams, k_max: int = 20, tol: float = 1e-12) -> dict:
    """Determinant -omega^2, both nearest-neighbour recurrences, and the
    exact k=0 initial conditions of the 2x2 interaction blocks."""
    from .lax_builder import xk_matrix

    om, lam, u = params.omega, params.lam, params.u
    det_target = -(om * om)
    step_mm = -u * om
    step_pp = -u * om * (1.0 - lam * lam)
    det_worst = 0.0
    rec_mm_worst = 0.0
    rec_pp_worst = 0.0
    prev = None
    for k in range(k_max + 1):
        Xk = xk_matrix(k, params)
        det = Xk[0, 0] * Xk[1, 1] - Xk[0, 1] * Xk[1, 0]
        det_worst = max(det_worst, abs(det - det_target) / abs(det_target))
        if prev is not None:
            sc = max(1.0, abs(prev[0, 0]), abs(prev[1, 1]))
            rec_mm_worst = max(rec_mm_worst, abs((Xk[0, 0] - prev[0, 0]) - step_mm) / sc)
            rec_pp_worst = max(rec_pp_worst, abs((Xk[1, 1] - prev[1, 1]) - step_pp) / sc)
        prev = Xk
    X0 = xk_matrix(0, params)
    init_exact = bool(X0[1, 1] == 1.0 and X0[0, 0] == det_target)
    passed = bool(
        det_worst <= tol and rec_mm_worst <= tol and rec_pp_worst <= tol and init_exact
    )
    return {
        "identity": "interaction_block_structure",
        "k_max": k_max,
        "det_max_rel": det_worst,
        "recurrence_mm_max_rel": rec_mm_worst,
        "recurrence_pp_max_rel": rec_pp_worst,
        "initial_conditions_exact": init_exact,
        "tolerance": tol,
        "passed": passed,
    }


def sample_params(num: int, seed: int = 42) -> list:
    """Random parameter points: lambda, omega uniform on the annulus
    0.3 <= |z| <= 1.5, u from {+-0.5, +-1, +-2}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num):
        zs = []
        for _ in range(2):
            r = 0.3 + 1.2 * rng.random()
            phi = 2.0 * np.pi * rng.random()
            zs.append(r * np.exp(1j * phi))
        u = float(rng.choice([0.5, -0.5, 1.0, -1.0, 2.0, -2.0]))
        out.append(LaxParams(zs[0], zs[1], u))
    return out


def verify_family(params: LaxParams, cutoff_K: int, tol: float = DEFAULT_TOL) -> list:
    """Assemble at cutoff_K + EDGE_MARGIN and run every check projected
    to levels <= cutoff_K."""
    fam = assemble_family(cutoff_K + EDGE_MARGIN, params)
    return [chk(fam, target_K=cutoff_K, tol=tol) for chk in ALL_CHECKS]


def verify_suite(num_samples: int = 5, cutoffs=(3, 4, 5), tol: float = DEFAULT_TOL,
                 seed: int = 42) -> list:
    """The standard verification sweep: random samples plus the lambda=0 and
    u=0 special points, at each cutoff."""
    points = sample_params(num_samples, seed=seed) + [
        LaxParams(0.0, 0.9 + 0.35j, 1.0),
        LaxParams(0.45 - 0.6j, 0.8 + 0.25j, 0.0),
    ]
    reports = []
    for K in cutoffs:
        for p in points:
            reports.extend(verify_family(p, K, tol=tol))
    return reports
