"""Probe of the conjectured two-parameter commuting transfer family.

For fixed interaction u, transfer operators at different (lambda, omega) are
conjectured to commute at every chain length. This is numerical evidence
only — failures are reported in a separate "conjecture" tier and never fail
the identity checks.

check_commutativity reads the (S, T) blocks of each point's Omega, for every
requested length, from one contraction (ness_engine.omega_blocks) at the
cutoff k_exact of the longest chain N, whose plan refuses a transfer entry
that breaks the charge once for every point. The tensor is nested in the
cutoff, so a shorter Omega read from it is the one at its own k_exact(n)
(the tests pin this). The commutator's (Frobenius, max) norms are summed
one block at a time, and both Frobenius norms of Omega read off the one
array that holds its blocks, so that beyond the two points' blocks the
probe holds one commutator block; no dense Omega is formed, and the dense
cross-check ness_engine.contract_omega agrees to rounding. The pairs of
sample_pairs are numpy's default_rng(seed) stream, drawn without
numpy.random (algebra_verifier.SeededStream).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra_verifier import SeededStream, annulus_points, residual_report
from .lax_builder import LaxParams
from .ness_engine import k_exact, omega_blocks

CONJECTURE_TOL = 1e-10


def sample_pairs(num: int, seed: int = 42) -> list:
    """Random ((lambda, omega), (lambda', omega')) pairs from
    algebra_verifier.annulus_points."""
    rng = SeededStream(seed)
    points = (annulus_points(rng, 4) for _ in range(num))
    return [((l1, o1), (l2, o2)) for l1, o1, l2, o2 in points]


def _sq(x: np.ndarray) -> float:
    """||x||_F^2, summed as np.linalg.norm sums it."""
    x = x.ravel()
    return float(x.real @ x.real + x.imag @ x.imag)


def check_commutativity(ns, u: float, pairs) -> dict:
    """{n: reports} for the chain lengths ns: per pair, the commutator
    residual ||[O, O']||_F on the scale ||O||_F ||O'||_F of the n-site
    transfer operators, reported at the exact cutoff k_exact(n). A residual
    or scale that overflows is refused with ValueError, and a probe whose
    contraction would pass linalg.MAX_CHAIN_BYTES with MemoryError
    (ness_engine.omega_blocks), before its first tensor is built."""
    reports = {n: [] for n in ns}
    if not reports or min(reports) < 1:
        raise ValueError(f"the probe needs chain lengths of at least 1 site, got {list(reports)}")
    K = k_exact(max(reports))
    for (l1, o1), (l2, o2) in pairs:
        p1, p2 = LaxParams(l1, o1, u), LaxParams(l2, o2, u)
        B1, B2 = (omega_blocks(K, p, reports) for p in (p1, p2))
        for n, reps in reports.items():
            # an overflow shows as an inf or nan residual, refused below
            sq, mx = 0.0, 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                for a, b in zip(B1[n], B2[n]):  # one commutator block at a time
                    c = a @ b
                    c -= b @ a
                    sq, mx = sq + _sq(c), max(mx, float(np.abs(c).max()))
                # the blocks of an Omega are views of one array, which holds each entry once
                scale = np.linalg.norm(B1[n][0].base) * np.linalg.norm(B2[n][0].base)
            rep = residual_report("transfer_commutation", p1, k_exact(n), (math.sqrt(sq), mx),
                                  scale, CONJECTURE_TOL)
            if not np.isfinite([rep.residual_fro, rep.operand_scale]).all():
                raise ValueError(f"the {n}-site commutator at {p1} overflows")
            reps.append(rep)
    return reports
