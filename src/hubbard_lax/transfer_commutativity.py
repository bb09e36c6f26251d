"""Probe of the conjectured two-parameter commuting transfer family.

For fixed interaction u, transfer operators at different (lambda, omega) are
conjectured to commute at every chain length. This is numerical evidence
only — failures are reported in a separate "conjecture" tier and never fail
the identity checks.

check_commutativity builds one family per parameter point, at the cutoff
k_exact of the longest chain: the family is nested in the cutoff, so Omega
of every shorter chain contracted from it equals, bit for bit, Omega from
its own k_exact(n) family (the tests pin this). Omega is contracted by the
dense chain of ness_engine.contract_omega; at n <= 4 the planning of
linalg.sector_chain costs more than it saves. Omega conserves the charges
(S, T), so it is block diagonal on the sectors of linalg.basis_charges: an
Omega with a nonzero entry off those blocks is refused, never dropped, and
the commutator and both Frobenius norms are formed block by block. The
pairs of sample_pairs are numpy's default_rng(seed) stream, drawn without
numpy.random (algebra_verifier.SeededStream).
"""

from __future__ import annotations

import numpy as np

from .algebra_verifier import SeededStream, annulus_points, residual_report
from .lax_builder import LaxParams, assemble_family
from .linalg import sectors
from .ness_engine import contract_omega, k_exact

CONJECTURE_TOL = 1e-10


def sample_pairs(num: int, seed: int = 42) -> list:
    """Random ((lambda, omega), (lambda', omega')) pairs from
    algebra_verifier.annulus_points."""
    rng = SeededStream(seed)
    points = (annulus_points(rng, 4) for _ in range(num))
    return [((l1, o1), (l2, o2)) for l1, o1, l2, o2 in points]


def _sector_blocks(omega: np.ndarray, n_sites: int) -> list:
    """The diagonal (S, T) blocks of the n-site omega, as copies; ValueError
    if any nonzero entry lies off them, which the blocks would drop. Called
    on a contracted omega, whose guard has refused a chain too long for the
    4^n basis labels of linalg.sectors."""
    order, bounds = sectors(n_sites)
    omega = omega[np.ix_(order, order)]
    blocks = [omega[a:b, a:b].copy() for a, b in zip(bounds, bounds[1:])]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(omega):
        raise ValueError("the transfer operator breaks charge conservation: "
                         "Omega has a nonzero entry off its (S, T) blocks")
    return blocks


def _flat(blocks) -> np.ndarray:
    return np.concatenate([b.ravel() for b in blocks])


def check_commutativity(ns, u: float, pairs) -> dict:
    """{n: reports} for the chain lengths ns: per pair, the commutator
    residual ||[O, O']||_F on the scale ||O||_F ||O'||_F of the n-site
    transfer operators, reported at the exact cutoff k_exact(n). A residual
    or scale that overflows is refused with ValueError."""
    reports = {n: [] for n in ns}
    if not reports or min(reports) < 1:
        raise ValueError(f"the probe needs chain lengths of at least 1 site, got {list(reports)}")
    K = k_exact(max(reports))
    for (l1, o1), (l2, o2) in pairs:
        p1, p2 = LaxParams(l1, o1, u), LaxParams(l2, o2, u)
        f1, f2 = assemble_family(K, p1), assemble_family(K, p2)
        for n, reps in reports.items():
            # each dense Omega is released once its blocks are read
            B1, B2 = (_sector_blocks(contract_omega(f, n), n) for f in (f1, f2))
            # an overflow shows as an inf or nan residual, refused below
            with np.errstate(over="ignore", invalid="ignore"):
                rep = residual_report(
                    "transfer_commutation", p1, k_exact(n),
                    _flat([a @ b - b @ a for a, b in zip(B1, B2)]),
                    np.linalg.norm(_flat(B1)) * np.linalg.norm(_flat(B2)), CONJECTURE_TOL)
            if not np.isfinite([rep.residual_fro, rep.operand_scale]).all():
                raise ValueError(f"the {n}-site commutator at {p1} overflows")
            reps.append(rep)
    return reports
