"""Probe of the conjectured two-parameter commuting transfer family.

For fixed interaction u, transfer operators at different (lambda, omega) are
conjectured to commute at every chain length. This is numerical evidence
only — failures are reported in a separate "conjecture" tier and never fail
the identity checks.
"""

from __future__ import annotations

import numpy as np

from .algebra_verifier import ResidualReport
from .lax_builder import LaxParams, assemble_family
from .ness_engine import contract_omega, k_exact

CONJECTURE_TOL = 1e-10


def sample_pairs(num: int, seed: int = 42) -> list:
    """Random ((lambda, omega), (lambda', omega')) pairs from the annulus
    0.3 <= |z| <= 1.5."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(num):
        zs = []
        for _ in range(4):
            r = 0.3 + 1.2 * rng.random()
            phi = 2.0 * np.pi * rng.random()
            zs.append(r * np.exp(1j * phi))
        pairs.append(((zs[0], zs[1]), (zs[2], zs[3])))
    return pairs


def check_commutativity(n_sites: int, u: float, pairs) -> list:
    """Normalized commutator residuals ||[O, O']|| / (||O|| ||O'||) per pair,
    at the exact cutoff k_exact(n_sites)."""
    K = k_exact(n_sites)
    reports = []
    for (l1, o1), (l2, o2) in pairs:
        p1 = LaxParams(l1, o1, u)
        p2 = LaxParams(l2, o2, u)
        O1 = contract_omega(assemble_family(K, p1), n_sites)
        O2 = contract_omega(assemble_family(K, p2), n_sites)
        comm = O1 @ O2 - O2 @ O1
        scale = float(np.linalg.norm(O1) * np.linalg.norm(O2))
        res = float(np.linalg.norm(comm))
        reports.append(ResidualReport(
            identity_name="transfer_commutation",
            params=p1, cutoff_K=K,
            residual_fro=res,
            residual_max=float(np.max(np.abs(comm))),
            operand_scale=max(scale, 1e-300),
            passed=bool(res <= CONJECTURE_TOL * max(scale, 1e-300)),
            tol=CONJECTURE_TOL,
        ))
    return reports
