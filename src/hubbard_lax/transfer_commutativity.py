"""Probe of the conjectured two-parameter commuting transfer family.

For fixed interaction u, transfer operators at different (lambda, omega) are
conjectured to commute at every chain length. This is numerical evidence
only — failures are reported in a separate "conjecture" tier and never fail
the identity checks.

check_commutativity builds one transfer tensor per parameter point, at the
cutoff k_exact of the longest chain N, from the nonzeros of
lax_builder.build_L, and refuses any entry that breaks the charge (S, T).
The tensor is nested in the cutoff, so every shorter Omega read from it
equals, bit for bit, the one at its own k_exact(n) (the tests pin this).
One prefix <0+| A ... A (linalg.extend) keeps after site j the vertices at
levels <= min(j, N - j), which the root reaches and which still return to
it; each n-site Omega is read off it as its (S, T) blocks
(linalg.close_sectors), on which the commutator and both Frobenius norms are
formed. No dense Omega is formed; each entry is the sum that the dense
cross-check ness_engine.contract_omega forms. The pairs of sample_pairs are
numpy's default_rng(seed) stream, drawn without numpy.random
(algebra_verifier.SeededStream).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra_verifier import SeededStream, annulus_points, residual_report
from .aux_space import build_aux_space
from .lax_builder import LaxParams, build_L
from .linalg import close_sectors, extend, guard, refuse_entries, transfer_entries
from .ness_engine import k_exact

CONJECTURE_TOL = 1e-10


def sample_pairs(num: int, seed: int = 42) -> list:
    """Random ((lambda, omega), (lambda', omega')) pairs from
    algebra_verifier.annulus_points."""
    rng = SeededStream(seed)
    points = (annulus_points(rng, 4) for _ in range(num))
    return [((l1, o1), (l2, o2)) for l1, o1, l2, o2 in points]


def _omega_blocks(space, params: LaxParams, live: list, ns) -> dict:
    """{n: the (S, T) blocks of the n-site Omega at params} for the lengths
    ns, from one prefix kept on the first live[j] vertices after site j."""
    p, q, a, b, val = transfer_entries(build_L(space, params), space.dim)
    refuse_entries(p, q, a, b, space.charges())
    A = np.zeros((4, 4, space.dim, space.dim), dtype=complex)
    A[p, q, a, b] = val
    cur, blocks = np.ones((1, 1)), {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for j, m in enumerate(live):  # cur: the first j sites
            if j + 1 in ns:
                blocks[j + 1] = close_sectors(cur, A[:, :, :m, 0], j + 1)
                if not np.isfinite(_flat(blocks[j + 1])).all():
                    raise ValueError(f"the {j + 1}-site transfer operator at {params} overflows")
            if j + 1 < len(live):
                cur = extend(cur, A[:, :, :m, :live[j + 1]])
    return blocks


def _flat(blocks) -> np.ndarray:
    return np.concatenate([b.ravel() for b in blocks])


def check_commutativity(ns, u: float, pairs) -> dict:
    """{n: reports} for the chain lengths ns: per pair, the commutator
    residual ||[O, O']||_F on the scale ||O||_F ||O'||_F of the n-site
    transfer operators, reported at the exact cutoff k_exact(n). A residual
    or scale that overflows is refused with ValueError, and a probe whose
    contraction would pass linalg.MAX_CHAIN_BYTES with MemoryError, before
    anything is built."""
    reports = {n: [] for n in ns}
    if not reports or min(reports) < 1:
        raise ValueError(f"the probe needs chain lengths of at least 1 site, got {list(reports)}")
    N = max(reports)
    space = build_aux_space(k_exact(N))
    live = [space.level_prefix(min(j, N - j)) for j in range(N)]  # the root 0+ first
    # the prefixes before and after a site; per block entry, C(2n, n)^2 of
    # them, the gathered rows, their products, the index tables and the
    # blocks of both points; 1 MiB for the rest
    held = [16 ** j * m for j, m in enumerate(live)] + [0]
    entries = [math.comb(2 * n, n) ** 2 for n in reports]
    guard(16 * (max(map(sum, zip(held, held[1:]))) + 16 * max(entries) + 2 * sum(entries))
          + (1 << 20), f"{N}-site prefix contraction")
    for (l1, o1), (l2, o2) in pairs:
        p1, p2 = LaxParams(l1, o1, u), LaxParams(l2, o2, u)
        B1, B2 = (_omega_blocks(space, p, live, reports) for p in (p1, p2))
        for n, reps in reports.items():
            # an overflow shows as an inf or nan residual, refused below
            with np.errstate(over="ignore", invalid="ignore"):
                rep = residual_report(
                    "transfer_commutation", p1, k_exact(n),
                    _flat([a @ b - b @ a for a, b in zip(B1[n], B2[n])]),
                    np.linalg.norm(_flat(B1[n])) * np.linalg.norm(_flat(B2[n])), CONJECTURE_TOL)
            if not np.isfinite([rep.residual_fro, rep.operand_scale]).all():
                raise ValueError(f"the {n}-site commutator at {p1} overflows")
            reps.append(rep)
    return reports
