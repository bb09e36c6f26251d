"""Probe of the conjectured two-parameter commuting transfer family.

For fixed interaction u, transfer operators at different (lambda, omega) are
conjectured to commute at every chain length. This is numerical evidence
only — failures are reported in a separate "conjecture" tier and never fail
the identity checks.
"""

from __future__ import annotations

import numpy as np

from .algebra_verifier import annulus_points, residual_report
from .lax_builder import LaxParams, assemble_family
from .ness_engine import contract_omega, k_exact

CONJECTURE_TOL = 1e-10


def sample_pairs(num: int, seed: int = 42) -> list:
    """Random ((lambda, omega), (lambda', omega')) pairs from
    algebra_verifier.annulus_points."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(num):
        l1, o1, l2, o2 = annulus_points(rng, 4)
        pairs.append(((l1, o1), (l2, o2)))
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
        reports.append(residual_report(
            "transfer_commutation", p1, K, O1 @ O2 - O2 @ O1,
            np.linalg.norm(O1) * np.linalg.norm(O2), CONJECTURE_TOL))
    return reports
