"""Steady state of the boundary-driven ladder from the transfer operator.

Pipeline: a driving configuration (rates and boundary potentials) maps to its
Lax family in one place, ness_family: the family parameters of
ness_lax_params at the cutoff k_exact(n), which the chain length truncates
exactly, so n alone fixes the cutoff. The transfer components are
contracted site by site from the highest-weight auxiliary vector to give
Omega; the steady state is

    rho = R / tr R,  R = Omega Omega^dagger M,

with M the diagonal exp(eta * sum_j (sz_j + tz_j)), eta = log(G_L/G_R)/2.

Omega conserves the charges (S, T) = (sum_j sz_j, sum_j tz_j): each transfer
component moves the charge of the auxiliary vertex (AuxSpace.charges) by
what its physical operator adds (checked once per cutoff, by
lax_builder.transfer_plan). M is a scalar on each sector, so build_ness
reads Omega as its (S, T) blocks (omega_blocks, the one contraction of Omega
that the commands run, the commutation probe included) and keeps rho as the
blocks exp(eta (S + T)) Omega_s Omega_s^dag / Z, positive semidefinite
sector by sector; its positivity diagnostic comes from the singular values
of the Omega_s, each overwritten by its rho_s once read. The dense 4^n x 4^n
rho is assembled from the blocks only on demand (NessResult.rho), behind the
guard: for the oracle, the Lindblad residual, the state dump and the partial
traces of the cross-check observables.profile_and_currents, up to n = 6.
contract_omega, the dense chain, is a cross-check that the tests take as the
reference for omega_blocks; its own cross-checks, a factored chain and a
matrix-free product (tests/conftest.py), never split sectors, so the cutoff
test (K against K + 1) compares different tensors.

Sign convention: the steady-state construction uses the family member at the
*opposite* sign of the spectral parameter returned by map_driving_to_params.
The boundary-condition checks (check_boundary_conditions) pin this sign: with
+lambda they fail at O(1), with -lambda they vanish to machine precision, as
does the Lindblad fixed-point residual for n >= 3. n = 2 is insensitive to
the choice, which is what makes the convention easy to get wrong.

Stationarity is certified from local identities, as in the paper, so no
n-site chain is contracted for it and its cost grows with the cutoff alone,
not as 16^n. stationarity_certificate takes cfg and its ness_family and
returns three relative residuals: in the bulk, the two-site divergence of
the transfer components (algebra_verifier.check_gLOD) on that family,
between the auxiliary levels that the interior cuts of the chain reach,
together with the charge conservation of the bond Hamiltonian
(check_telescoping); at the ends, one dissipative equation each, read off
the root row and root column slabs of the doubled (bra-ket) site tensors on
the levels <= 1 that a single site reaches (build_double_lax,
check_boundary_conditions). The cross-check chains are contracted whole by
linalg.chain, on site tensors built by linalg.lift, and Omega sector by
sector by omega_blocks; both refuse any contraction whose peak memory
estimate exceeds linalg.MAX_CHAIN_BYTES.

Local expectation values in the steady state come from an environment
engine (local_expectations) that never materializes rho: one sweep from each
end of the chain over the doubled auxiliary space, each environment
rescaled and held as its values on the 1 + 6k entries of equal auxiliary
charge at the levels k <= min(j, n - j) that cut j reaches, with the pair
transfer built from the O(da) entries of lax_builder.build_L and no dense
family. Its terms depend on the cutoff alone and are planned once per
cutoff (_pair_plan, on lax_builder.transfer_plan); a chain forms only their
coefficients at its driving. Time and memory grow as n da (da = 4K + 1,
about 2n + 5); the store is guarded like linalg.chain, which admits whole
profiles up to n = 5976.
A sweep of the longest chain serves each length of a series that it resolves
(first_bonds), guarded on its own store. mpo_expectation, with dense pair
transfer matrices, is kept as its cross-check for short chains.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .algebra_verifier import check_gLOD
from .aux_space import AuxSpace, AuxVertex
from .hubbard_model import h_bond, h_end
from .lax_builder import (LaxFamily, LaxParams, assemble_family, build_L, transfer_entries,
                          transfer_plan)
from .linalg import (SITE_CHARGES, chain, guard, local4, one_plan_cache, phys_transfer_tensor,
                     sectors)

RHO_MAGIC = b"NESSRHO1"
# An environment value >= RESOLVED keeps every digit through the pair products
# unless a coefficient below 2^-62 takes it under the normal floats (2^-1022).
RESOLVED = 2.0 ** -960


@dataclass(frozen=True)
class DrivingConfig:
    gamma_L: float
    gamma_R: float
    mu_L: float
    mu_R: float
    u: float
    n_sites: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.gamma_L <= 0 or self.gamma_R <= 0:
            raise ValueError(
                "both injection/ejection rates must be positive for a unique "
                "steady state"
            )
        if self.n_sites < 2:
            raise ValueError("the steady-state construction needs n_sites >= 2")
        # M's site weights are exp(+-2 eta) = (G_L / G_R)^(+-1) (m_diag)
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(np.exp(2 * abs(map_driving_to_params(self)[2]))):
                raise ValueError(
                    f"the rates gamma_L = {self.gamma_L:g} and gamma_R = {self.gamma_R:g} are "
                    "too far apart: M's site weights (gamma_L / gamma_R)^(+-1) pass the float range"
                )

    def key(self) -> str:
        return (
            f"gL={self.gamma_L:g},gR={self.gamma_R:g},muL={self.mu_L:g},"
            f"muR={self.mu_R:g},u={self.u:g},n={self.n_sites}"
        )


def k_exact(n_sites: int) -> int:
    """Smallest cutoff that contracts an n-site product exactly: each factor
    moves the level by at most one, starting and ending at level 0."""
    return n_sites // 2 + 1


def map_driving_to_params(cfg: DrivingConfig):
    """(lambda, omega, eta) from the driving rates and potentials:

    lambda = (G_L - G_R - i(mu_L + mu_R)) / (G_L + G_R - i(mu_L - mu_R))
    omega  = (mu_L - mu_R + i(G_L + G_R)) / 4
    eta    = log(G_L / G_R) / 2
    """
    num = cfg.gamma_L - cfg.gamma_R - 1j * (cfg.mu_L + cfg.mu_R)
    den = cfg.gamma_L + cfg.gamma_R - 1j * (cfg.mu_L - cfg.mu_R)
    lam = num / den
    om = 0.25 * (cfg.mu_L - cfg.mu_R + 1j * (cfg.gamma_L + cfg.gamma_R))
    eta = 0.5 * np.log(cfg.gamma_L / cfg.gamma_R)
    return lam, om, eta


def ness_lax_params(cfg: DrivingConfig) -> LaxParams:
    """Family parameters used by the steady-state construction; see the
    module docstring for the sign of the spectral parameter."""
    lam, om, _ = map_driving_to_params(cfg)
    return LaxParams(-lam, om, cfg.u)


def ness_family(cfg: DrivingConfig) -> LaxFamily:
    """The one map from a driving to its Lax family: the steady-state
    parameters at the cutoff k_exact(n), which the chain length truncates
    exactly."""
    return assemble_family(k_exact(cfg.n_sites), ness_lax_params(cfg))


# ---------------------------------------------------------------------------
# transfer contraction

def _root_index(space: AuxSpace) -> int:
    return space.index[AuxVertex(0, +1)]


def _basis(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def contract_omega(fam: LaxFamily, n_sites: int) -> np.ndarray:
    """<0+| L_1 ... L_n |0+> as one dense 4^n x 4^n matrix, by linalg.chain:
    a cross-check that no command runs, kept as the tests' reference for
    omega_blocks."""
    e0 = _basis(fam.dim, _root_index(fam.space))
    return chain([phys_transfer_tensor(fam.L)] * n_sites, e0, e0)


def m_diag(n_sites: int, eta: float) -> np.ndarray:
    """Diagonal of M = prod_j exp(eta (sz_j + tz_j)) in the product basis, up
    to the power of two that takes the largest site weight into [1, 2): no
    product of weights overflows, and every reader of M divides it out."""
    loc = np.exp(eta * (2 * SITE_CHARGES.sum(axis=1) - 2))  # sz + tz = 2 (up spins) - 2
    loc = np.ldexp(loc, 1 - np.frexp(loc.max())[1])
    d = np.array([1.0])
    for _ in range(n_sites):
        d = np.outer(d, loc).ravel()
    return d


# ---------------------------------------------------------------------------
# the steady state

def require_state(n_sites: int, dense: bool = False) -> None:
    """Refuse, before any family is built, an n-site state that would pass
    linalg.MAX_CHAIN_BYTES: its charge-sector blocks hold C(2n, n)^2 entries
    at every driving, and its dense 4^n x 4^n matrix, when asked for, 16^n.
    A long chain is refused first on the bound
    C(2n, n)^2 >= 16^n / (pi (n + 1/2)) > 7 16^n / (11 (2n + 1)), within 0.3 %
    of the count at n = 100 and free at n = 10^5, where the exact count
    takes 0.6 s."""
    guard(16 * (7 * 16 ** n_sites // (11 * (2 * n_sites + 1))), f"{n_sites}-site sector blocks")
    guard(16 * math.comb(2 * n_sites, n_sites) ** 2, f"{n_sites}-site sector blocks")
    if dense:
        guard(16 * 16 ** n_sites, f"a dense {n_sites}-site state")


# The charge of the root 0+, the one vertex at level 0.
ROOT = (0, 0)


@one_plan_cache
def _plan(K: int, N: int) -> tuple:
    """What omega_blocks contracts for chains of up to N sites on the
    cutoff-K space, which the vertex charges fix alone. Returns
    (span, steps, reads, sizes):
    - span[c]: the vertices of charge c, adjacent in the basis: (k, k) holds
      k- and k+, each half-integer vertex has a charge of its own;
    - steps[j - 1][e]: the pieces (d, p, q, lo, hi) of the rows of charge e
      after j sites: rows lo:hi are those of charge d after j - 1 sites
      through A[p, q]. A charge is kept while its level, half the sum of its
      charges, is <= min(j, N - j), so that it can still return to the root;
    - reads[n]: the pieces (d, p, q, at) of the n-site Omega: the rows of
      charge d after n - 1 sites, through A[p, q] to the root, hold its
      entries at the places `at` (int32) of its blocks, in linalg.sectors
      order, each row-major, one after the other. A row after j sites is a
      string of (p, q), and its entry is (P, Q) = (p_1..p_j, q_1..q_j);
    - sizes[j]: the entries held after j < N sites, each row's values and
      its label (P, Q), two int64 the size of one complex value.
    """
    span = {}
    for i, c in enumerate(map(tuple, transfer_plan(K).charges.tolist())):
        assert c not in span or span[c].stop == i, "the vertices of a charge are not adjacent"
        span[c] = slice(span[c].start if c in span else i, i + 1)
    moves = {(p, q): (SITE_CHARGES[p] - SITE_CHARGES[q]).tolist() for p, q in np.ndindex(4, 4)}
    rows, steps, sizes = {ROOT: 1}, [], [2]
    for j in range(1, N + 1):
        step, new = {}, {}
        for d, m in rows.items():
            for (p, q), (s, t) in moves.items():
                e = (d[0] + s, d[1] + t)
                if e in span and sum(e) <= 2 * min(j, N - j):
                    lo = new.get(e, 0)
                    new[e] = lo + m
                    step.setdefault(e, []).append((d, p, q, lo, lo + m))
        steps.append(step)
        rows = new
        sizes.append(sum(m * (span[e].stop - span[e].start + 1) for e, m in rows.items()))
    labels, reads = {ROOT: np.zeros((1, 2), dtype=np.int64)}, {}
    for n, step in enumerate(steps, 1):  # labels: (P, Q) of the rows after n - 1 sites
        # the entry (P, Q) of the n-site Omega lies at col[P] + rank[Q] of its blocks
        order, bounds = sectors(n)
        col, rank = np.empty((2, 4 ** n), dtype=np.int64)
        at = 0
        for lo, hi in zip(bounds, bounds[1:]):
            rank[order[lo:hi]] = np.arange(hi - lo)
            col[order[lo:hi]] = at + (hi - lo) * np.arange(hi - lo)
            at += (hi - lo) ** 2
        reads[n] = [(d, p, q, (col[4 * labels[d][:, 0] + p] + rank[4 * labels[d][:, 1] + q])
                     .astype(np.int32)) for d, p, q, _, _ in step[ROOT]]
        if n < N:
            labels = {e: np.concatenate([4 * labels[d] + (p, q) for d, p, q, _, _ in pieces])
                      for e, pieces in step.items()}
    return span, steps, reads, sizes[:-1]


def omega_blocks(K: int, params: LaxParams, ns) -> dict:
    """{n: the (S, T) blocks of the n-site Omega = <0+| L_1 ... L_n |0+> at
    params} for the lengths ns, in linalg.sectors order, each over its
    sector's states in increasing order: the one contraction of Omega that
    the commands run (build_ness and the commutation probe). The blocks of
    each Omega are views, one after the other, of one array, their base.

    The transfer tensor A[p, q, a, b] comes from the nonzeros of
    lax_builder.build_L at the cutoff K, which must be at least
    k_exact(max(ns)), and conserves the charge (transfer_plan).
    <0+| A ... A is contracted once from the root for every length. After j
    sites it is held as one row per string of (p, q), labelled by its row
    and column states (P, Q); the string's charges fix those of its
    auxiliary vertex, so the rows are grouped by charge and stored on the
    vertices of their charge alone. The groups, the labels and where each
    entry lands are planned once per (cutoff, N) (_plan); at a point, each
    site costs one product per (charge, p, q), written into the rows of its
    group, and each n-site Omega is read off the rows after n - 1 sites that
    site n returns to the root. An Omega that overflows is refused with
    ValueError.

    Refused with MemoryError: before anything is built, blocks that pass the
    guard (require_state); once the O(dim) entries are formed and the rows
    planned, before the tensor or any row is allocated, an estimate that
    does. It counts the blocks four times (two points' blocks, the places of
    their entries in the plan, and what is formed from them: one commutator
    block at a time in the probe, rho and its singular values in
    build_ness), the entries of the largest site four times (two sites, and
    the labels and places that _plan forms for one), eight entries per state
    of N sites for the tables of _plan and linalg.sectors, and 1 MiB for the
    rest."""
    N = max(ns)
    require_state(N)
    space = transfer_plan(K).space
    p, q, a, b, val = transfer_entries(build_L(space, params), space.dim)
    span, steps, reads, sizes = _plan(K, N)
    blocks = {n: math.comb(2 * n, n) ** 2 for n in ns}
    guard(16 * (4 * sum(blocks.values()) + 4 * max(sizes) + 8 * 4 ** N) + (1 << 20),
          f"{N}-site sector contraction")
    A = np.zeros((4, 4, space.dim, space.dim), dtype=complex)
    A[p, q, a, b] = val
    flat = {n: np.zeros(m, dtype=complex) for n, m in blocks.items()}
    groups, i0 = {ROOT: np.ones((1, 1), dtype=complex)}, span[ROOT].start
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for n, step in enumerate(steps, 1):  # groups: the rows after n - 1 sites
            for d, p, q, at in reads[n] if n in flat else ():
                flat[n][at] = groups[d] @ A[p, q, span[d], i0]
            if n == N:
                break
            new = {}
            for e, pieces in step.items():
                x = np.empty((pieces[-1][4], span[e].stop - span[e].start), dtype=complex)
                for d, p, q, lo, hi in pieces:
                    x[lo:hi] = groups[d] @ A[p, q, span[d], span[e]]
                new[e] = x
            groups = new
    out = {}
    for n in sorted(flat):
        if not np.isfinite(flat[n]).all():
            raise ValueError(f"the {n}-site transfer operator at {params} overflows")
        out[n], at = [], 0
        for m in np.diff(sectors(n)[1]).tolist():
            out[n].append(flat[n][at:at + m * m].reshape(m, m))
            at += m * m
    return out


@dataclass
class NessResult:
    """The steady state as its charge-sector blocks: rows[i] holds the basis
    states (indices into 4^n) of one sector (S, T), rho_blocks[i] rho on
    them. rho vanishes between sectors; the dense rho is assembled on
    demand, behind the guard."""
    cfg: DrivingConfig
    rows: list
    rho_blocks: list
    eta: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def rho(self) -> np.ndarray:
        """The dense rho, each block on its sector rows: the one place that forms it."""
        require_state(self.cfg.n_sites, dense=True)
        out = np.zeros((4 ** self.cfg.n_sites,) * 2, dtype=complex)
        for r, b in zip(self.rows, self.rho_blocks):
            out[np.ix_(r, r)] = b
        return out


def build_ness(cfg: DrivingConfig) -> NessResult:
    """rho = Omega Omega^dag M / Z, sector by sector, and its diagnostics,
    from the transfer components alone: no dense family is built.

    Omega conserves (S, T) and M is the scalar exp(eta (S + T)) on each
    sector, so rho_s = exp(eta (S + T)) Omega_s Omega_s^dag / Z with Omega_s
    from omega_blocks. Its eigenvalues are exp(eta (S + T)) sigma^2 / Z over
    the singular values sigma of Omega_s, which resolve the smallest one to
    eps sigma_max, so positivity_min_eig is read far below the eps ||rho||
    floor of a dense eigensolver. Each rho_s is written over its Omega_s once
    sigma_min is read."""
    n = cfg.n_sites
    blocks = omega_blocks(k_exact(n), ness_lax_params(cfg), [n])[n]
    order, bounds = sectors(n)
    rows = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    _, _, eta = map_driving_to_params(cfg)
    smallest = []
    for w, om in zip(m_diag(n, eta)[[r[0] for r in rows]], blocks):
        smallest.append(w * np.linalg.svd(om, compute_uv=False)[-1] ** 2)
        om[...] = w * (om @ om.conj().T)
    tr = sum(np.trace(b).real for b in blocks)
    if tr == 0.0:
        raise RuntimeError("trace of Omega Omega^dag M vanished; inconsistent input")
    for b in blocks:
        b /= tr
    diag = {
        "hermiticity": float(np.sqrt(sum(np.linalg.norm(b - b.conj().T) ** 2 for b in blocks)
                                     / sum(np.linalg.norm(b) ** 2 for b in blocks))),
        "trace_deviation": float(abs(sum(np.trace(b) for b in blocks) - 1.0)),
        "positivity_min_eig": float(min(smallest) / tr),
    }
    return NessResult(cfg=cfg, rows=rows, rho_blocks=blocks, eta=float(eta), diagnostics=diag)


def state_passed(diagnostics: dict) -> bool:
    """The sanity rule for the diagnostics of build_ness, which gates ness
    only: Hermitian to 1e-10, trace one to 1e-12, and no eigenvalue below
    -1e-10."""
    return (diagnostics["hermiticity"] <= 1e-10
            and diagnostics["trace_deviation"] <= 1e-12
            and diagnostics["positivity_min_eig"] >= -1e-10)


# ---------------------------------------------------------------------------
# stationarity certificate: bulk and boundary identities

def build_double_lax(cfg: DrivingConfig, fam: LaxFamily):
    """Root slabs of the doubled site tensors, which pair the ket and bra
    auxiliary indices, (ac) and (bd):

        LL[p, q, (ac), (bd)] = sum_r A[p, r, a, b] conj(A[q, r, c, d]) m[q],

    i.e. L Lbar M, where A is the transfer tensor of the components L and m
    the single-site diagonal of M. LLt = (Lt Lbar - L Lbar_t) M is the same
    pairing with the tensor of Ltilde in place of A in one factor, then the
    other. fam is the driving's ness_family, or, in the necessity probes, a
    family at perturbed parameters.

    Returns (row, row_t, col, col_t): the slab LL[p, q, (root, root), (x, y)]
    and that of LLt, then LL[p, q, (x, y), (root, root)] and that of LLt,
    each laid out [x, y, p, q] over the vertices x, y of level <= 1
    (AuxSpace.level_prefix(1)). A site moves the level by at most one, so
    from the root A and At reach no further at any cutoff; a root entry of
    either past level 1 is refused with ValueError, so the cut drops nothing,
    and the slabs cost the same at every n.
    """
    m = m_diag(1, map_driving_to_params(cfg)[2])
    A, At = phys_transfer_tensor(fam.L), phys_transfer_tensor(fam.Ltilde)
    i0, near = _root_index(fam.space), fam.space.level_prefix(1)
    for name, T in (("L", A), ("Ltilde", At)):
        if T[:, :, i0, near:].any() or T[:, :, near:, i0].any():
            raise ValueError(f"the root slab of {name} reaches past level 1")

    def pair(X, Z):
        # X, Z are root slabs [p, r, x] of two site tensors
        return np.einsum("prx,qry,q->xypq", X, np.conj(Z), m)

    def slabs(X, Xt):
        return pair(X, X), pair(Xt, X) - pair(X, Xt)

    return (*slabs(A[:, :, i0, :near], At[:, :, i0, :near]),
            *slabs(A[:, :, :near, i0], At[:, :, :near, i0]))


def double_contract(cfg: DrivingConfig, fam: LaxFamily, n_sites: int) -> np.ndarray:
    """Cross-check route for R = Omega Omega^dag M: <00| LL_1 ... LL_n |00>
    through the whole doubled site tensor LL of build_double_lax, built here."""
    da = fam.dim
    # the largest partial product, refused before the da^4-entry LL is built
    guard(16 * 16 ** (n_sites - 1) * da * da, f"{n_sites}-site doubled contraction")
    A = phys_transfer_tensor(fam.L)
    LL = np.einsum("prab,qrcd,q->pqacbd", A, np.conj(A), m_diag(1, map_driving_to_params(cfg)[2]))
    e0 = _basis(da * da, _root_index(fam.space) * (da + 1))  # (root, root)
    return chain([LL.reshape(4, 4, da * da, da * da)] * n_sites, e0, e0)


def check_telescoping(cfg: DrivingConfig, fam: LaxFamily):
    """Bulk certificate of stationarity from two local identities:

    1. the bond divergence of check_gLOD, with L = sum_st sigma^s tau^t L^st,
           [h_{j,j+1}, L_j L_{j+1}] = (Lt_j + Y L_j) L_{j+1} - L_j (Lt_{j+1} + L_{j+1} Y);
    2. [h_bond, m (x) m] = 0: H_bulk conserves charge, so it commutes with M.

    Summed over the bonds of L_1 ... L_n, identity 1 cancels each Lt_j at an
    interior site and Y at every interior cut but the first and the last:
    [H_bulk, L_1 ... L_n] = E_1 L_2 ... L_n - L_1 ... L_{n-1} E_n with
    E = Lt + Y L + L Y. With identity 2 and [H_bulk, Omega^dag] =
    -[H_bulk, Omega]^dag this is the doubled telescoping
    [H_bulk, <00| LL_1 ... LL_n |00>] = <00| E_1 LL_2 ... |00> -
    <00| ... LL_{n-1} E_n |00>, E = LLt + {YY, LL}, whose two ends
    check_boundary_conditions cancels against the dissipators.

    Bond j needs identity 1 only between the levels at cuts j - 1 and j + 1.
    Every factor moves the level by at most one from the root at both ends,
    so cut j carries levels <= min(j, n - j) <= K - 1 at K = k_exact(n), and
    the summed middle index stays inside the family: one check of the family
    itself between outer levels <= K - 1 covers every cut. check_gLOD skips
    only outer levels more than two apart, where its asserted band zeroes every term.

    Returns (residual_fro, scale): the larger residual of the two, on the
    scale of the bond divergence.
    """
    r = check_gLOD(fam, target_K=fam.space.cutoff_K - 1)
    _, _, eta = map_driving_to_params(cfg)
    h, mm = h_bond(fam.params.u), m_diag(2, eta)
    commutator = np.linalg.norm(h * mm - mm[:, None] * h) / (
        np.linalg.norm(h) * np.linalg.norm(mm))
    return max(r.residual_fro, float(commutator) * r.operand_scale), r.operand_scale


def _dissipator(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """2 a X a^dag - a^dag a X - X a^dag a on the physical indices (the last
    two axes) of X."""
    ad = a.conj().T
    return 2.0 * a @ X @ ad - ad @ a @ X - X @ ad @ a


def _yy(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Y X - X Y^dag on the doubled auxiliary index (x, y) of a slab
    X[x, y, p, q]: Y (x) 1 - 1 (x) conj(Y) applied without forming that
    da^2 x da^2 matrix. A row slab, acted on from the right, takes Y^T."""
    return np.einsum("xz,zypq->xypq", Y, X) - np.einsum("xzpq,yz->xypq", X, np.conj(Y))


def check_boundary_conditions(cfg: DrivingConfig, fam: LaxFamily) -> tuple:
    """Residuals of the two single-site boundary identities.

    Left:  i G_L (D_{s+} + D_{t+}) LL + LLt + LL YY + [h_L, LL]  -> row slab
           at the doubled root vanishes;
    Right: i G_R (D_{s-} + D_{t-}) LL - LLt - YY LL + [h_R, LL]  -> column
           slab at the doubled root vanishes.

    The dissipators and h_L, h_R act on the physical indices of the slabs of
    build_double_lax, YY on the doubled auxiliary index the slab leaves free.
    Each slab is checked whole, on the levels <= 1 that it reaches; an entry
    of Y that would carry it past them is refused with ValueError. Returns
    (left_residual, right_residual, scale), the residuals and their common
    scale.
    """
    row, row_t, col, col_t = build_double_lax(cfg, fam)
    near = len(row)
    if fam.Y[:near, near:].any() or fam.Y[near:, :near].any():
        raise ValueError("Y couples the levels <= 1 to higher ones")
    Y = fam.Y[:near, :near]

    def local(gamma, jumps, h, X):
        return 1j * gamma * sum(_dissipator(a, X) for a in jumps) + h @ X - X @ h

    OL = (local(cfg.gamma_L, (local4("+", "0"), local4("0", "+")),
                h_end(cfg.u, cfg.mu_L), row) + row_t + _yy(Y.T, row))
    OR = (local(cfg.gamma_R, (local4("-", "0"), local4("0", "-")),
                h_end(cfg.u, cfg.mu_R), col) - col_t - _yy(Y, col))
    scale = max(np.linalg.norm(row_t), np.linalg.norm(col_t), 1.0)
    return float(np.linalg.norm(OL)), float(np.linalg.norm(OR)), float(scale)


def stationarity_certificate(cfg: DrivingConfig, fam: LaxFamily) -> dict:
    """The local stationarity certificate of build_ness's state of cfg, on
    fam = ness_family(cfg), as relative residuals under the keys of the ness
    document: the two boundary equations (check_boundary_conditions) and the
    bulk (check_telescoping), each over its scale. It contracts no chain, so
    its cost grows with the cutoff alone."""
    left, right, scale = check_boundary_conditions(cfg, fam)
    bulk, bulk_scale = check_telescoping(cfg, fam)
    return {"boundary_left_residual": left / scale, "boundary_right_residual": right / scale,
            "telescoping_residual": bulk / bulk_scale}


# ---------------------------------------------------------------------------
# environment engine: local expectation values without rho
#
# tr(Omega Omega^dag W) for W = (x)_j w_j, w_j = m O_j (m the single-site
# diagonal of M), is <00| F(w_1) ... F(w_n) |00> with the pair transfer F(w)
# of pair_transfer. Holding a doubled-space vector as a da x da matrix
# X[a, c], F(w) acts from the right as X -> sum w[r,p] A_pq X A_rq^dag and
# from the left as X -> sum w[r,p] A_pq^T X conj(A_rq). A conserves the total
# charge, so every environment F_id^k |00> lies where a and c have equal charge.

def _doubled_layout(space: AuxSpace):
    """The 36K - 11 entries (a, c) whose charges differ by at most one per
    species, c within two plaquettes of a, as (a, c, pos): the 6K + 1 of
    equal charge first, each part row-major, so that the 1 + 6k at levels
    <= k lead, (root, root) first; pos[a, c - a + 8] is the place of (a, c)."""
    da, ch = space.dim, space.charges()
    a, c = np.divmod(np.arange(17 * da), 17)
    c += a - 8
    a, c = a[(c >= 0) & (c < da)], c[(c >= 0) & (c < da)]
    d = ((ch[a] - ch[c]) * (ch[a] - ch[c])).max(axis=1)
    order = np.lexsort((c, a, d))[:np.count_nonzero(d <= 1)]
    pos = np.zeros((da, 17), dtype=np.int64)
    pos[a[order], c[order] - a[order] + 8] = np.arange(len(order))
    return a[order], c[order], pos


class _Terms:
    """The terms of one side of the pair transfer that do not depend on the
    point (_pair_plan), in key order: term m multiplies the transfer entries
    i[m] and conj(j[m]) into slot (2 at, 2 at + 1) of T[r, p, a, c] from the
    entry src[m] of X; size is the number of layout entries and reach2 the
    sum of the squared counts of products that meet at each entry of T."""

    def __init__(self, i, j, src, slot, size, reach2):
        self.i, self.j, self.src, self.slot, self.size, self.reach2 = i, j, src, slot, size, reach2


def _terms(layout, p, q, a, b) -> _Terms:
    """The _Terms of F(w) X on the entries of _doubled_layout from the
    right, from the entries A[p, q, a, b] of the transfer tensor; from the
    left with a and b swapped. T[r, p, a, c] = sum_q sum_{b,d} A[p,q,a,b]
    X[b,d] conj(A[r,q,c,d]) is held as its terms ((b, d), (r, p), (a, c)),
    in the order of (b, d), so that an X at levels <= k meets a prefix of
    them. No two terms share a key, which is asserted: a point's
    coefficients are then one gather-multiply, with nothing to merge."""
    ua, uc, pos = layout
    n0, size = 6 * (len(pos) // 4) + 1, len(ua)  # 6K + 1 of equal charge
    # the entries of each column (b, q) of A, padded with -1 to one width
    col = 4 * b + q
    order = np.lexsort((a, p, col))
    rank = np.arange(len(col)) - np.searchsorted(col[order], col[order])
    cols = np.full((4 * len(pos), rank.max() + 1), -1)
    cols[col[order], rank] = order
    # every pair of entries of columns (b, q) and (d, q), each (b, d) of equal charge
    i, j, src = np.broadcast_arrays(cols[4 * ua[:n0, None] + np.arange(4)][..., :, None],
                                    cols[4 * uc[:n0, None] + np.arange(4)][..., None, :],
                                    np.arange(n0)[:, None, None, None])
    keep = (i >= 0) & (j >= 0)
    i, j, src = i[keep], j[keep], src[keep]
    at = pos[a[i], a[j] - a[i] + 8]
    reach = np.bincount(at, minlength=size)
    key = (src * 16 + 4 * p[j] + p[i]) * size + at
    order = np.argsort(key)
    key = key[order]
    assert (key[1:] > key[:-1]).all(), "two terms of the pair transfer share a key"
    src, at = np.divmod(key, 16 * size)
    return _Terms(i[order].astype(np.int32), j[order].astype(np.int32), src,
                  (2 * at[:, None] + [0, 1]).ravel(), size, float((reach * reach).sum()))


@one_plan_cache
def _pair_plan(K: int) -> tuple:
    """The _Terms of the pair transfer of the cutoff-K space from the right
    and from the left, which the entries of transfer_plan(K) and
    _doubled_layout fix alone: built once per cutoff, for every driving."""
    plan = transfer_plan(K)
    layout, (p, q, a, b) = _doubled_layout(plan.space), plan.entries
    return _terms(layout, p, q, a, b), _terms(layout, p, q, b, a)


class _PairSide:
    """F(w) X for many w at once, on the entries of _doubled_layout, from
    the values X on its first len(X) entries, at one point: the planned
    terms (_Terms) with the point's coefficients val[i] conj(val[j]) over
    the values val of the transfer entries. One bincount forms T, one
    product contracts every w."""

    def __init__(self, terms: _Terms, val):
        self.terms = terms
        with np.errstate(over="ignore", invalid="ignore"):
            self.coef = val[terms.i] * np.conj(val[terms.j])

    def apply(self, X: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """F(w) X for each w of the (m, 4, 4) stack ws, as [w, entry]."""
        t = self.terms
        k = np.searchsorted(t.src, len(X))
        T = np.bincount(t.slot[:2 * k], (self.coef[:k] * X[t.src[:k]]).view(float),
                        minlength=32 * t.size).view(complex)
        return ws.reshape(-1, 16) @ T.reshape(16, -1)


class _Environments:
    """The environment engine of one chain: its pair transfer from either
    side, planned once per cutoff (_pair_plan) with the values of build_L at
    the chain's driving, its sweep from the right, each environment held as
    its values on the entries of equal charge that its cut reaches, and the
    values read off them. Refused before anything is built if the
    environments kept at the cuts `stored` would not fit, and before the
    sweep if a pair product could overflow. Its transfer entries conserve
    the charge (transfer_plan), so none moves the level by more than one."""

    def __init__(self, cfg: DrivingConfig, stored):
        n, self.K = cfg.n_sites, k_exact(cfg.n_sites)
        # the kept environments and one in flight; per layout entry, about 1850 bytes:
        # the planned terms of both sides (9.6 each at 32 bytes), their coefficients
        # at this point (16 bytes each), the transfer plan (180) and what two applies
        # hold (750); 1 MiB for the rest
        guard(16 * sum(self.level(min(k, n - k)) for k in [*stored, n // 2])
              + 2000 * (36 * self.K - 11) + (1 << 20), f"{n}-site environment store")
        space, params = transfer_plan(self.K).space, ness_lax_params(cfg)
        band = build_L(space, params)
        *_, val = transfer_entries(band, space.dim)
        big = 4 * float(np.nanmax(np.abs(np.concatenate([v for *_, v in band.values()]))))
        overflow = OverflowError(f"the pair transfer of the {n}-site chain at {params} "
                                 f"overflows: 4 max|L| = {big:.3g}")
        if not math.isfinite(amax := float(np.abs(val).max())):
            raise overflow
        right, left = _pair_plan(self.K)
        self.right, self.left = _PairSide(right, val), _PairSide(left, val)
        self.m = m_diag(1, map_driving_to_params(cfg)[2])
        # an entry of F(w) X, X of unit norm and w = m O with |O| <= 1, is at
        # most max m max|A|^2 times its reach; the rescaling and the overlaps
        # sum squares of such entries
        big = amax * amax * float(self.m.max())
        if not big * big * max(right.reach2, left.reach2) < math.inf:
            raise overflow

    def level(self, k: int) -> int:
        """The number of entries of equal charge at levels <= k."""
        return 1 + 6 * min(k, self.K)

    def weights(self, ops) -> np.ndarray:
        """The stack of m O for the identity and each local operator O."""
        return np.array([self.m[:, None] * np.asarray(op) for op in [np.eye(4), *ops]])

    def sweep(self, n: int):
        """Yields env[k] ~ F_id^k |00> for k < n at unit norm, so that long chains
        cannot overflow, on the levels <= min(k, n - k) that cut k reaches."""
        X, w_id = np.ones(1, dtype=complex), self.weights([])
        yield X
        for k in range(1, n):
            X = self.right.apply(X, w_id)[0, :self.level(min(k, n - k))]
            X = X / np.linalg.norm(X)
            yield X

    def expectations(self, env: list, site_ops: dict, bond_ops: dict):
        """local_expectations of the len(env)-site chain, read off its
        environments env from the right."""
        n, n_site, L = len(env), len(site_ops), np.ones(1, dtype=complex)
        w_left = self.weights([*site_ops.values(), *(op for op, _ in bond_ops.values())])
        w_right = self.weights([op for _, op in bond_ops.values()])
        for j in range(1, n + 1):
            V = self.left.apply(L / np.linalg.norm(L), w_left)
            site = np.einsum("wx,x->w", V[:n_site + 1, :len(env[n - j])], env[n - j])
            bond = {}
            if j < n:
                RV = self.right.apply(env[n - j - 1], w_right)
                pairs = np.einsum("wx,wx->w", V[[0, *range(n_site + 1, len(V))]], RV)
                bond = dict(zip(bond_ops, pairs[1:] / pairs[0]))
            yield dict(zip(site_ops, site[1:] / site[0])), bond
            L = V[0, :self.level(min(j, n - j))]


def local_expectations(cfg: DrivingConfig, site_ops: dict, bond_ops: dict):
    """Steady-state expectation values of one-site and two-site operators at
    every position of the chain, without rho, in one sweep each way: time
    and memory grow as n da, not as the da^4 of a dense pair transfer.

    site_ops maps a name to a 4x4 operator O, bond_ops a name to a pair
    (O, P) of them. Yields, for j = 1..n, the pair of dicts
    ({name: <O_j>}, {name: <O_j P_{j+1}>}), the second empty at j = n. The
    generator is lazy: a caller that needs only the first sites stops early.

    The sweep from the left reads each value as a ratio of two contractions
    at the same cut, <left| F(w_j) (F(w_{j+1})) |right> over <left| F_id
    (F_id) |right>, in which the rescaling of the environments cancels.
    """
    eng = _Environments(cfg, range(cfg.n_sites))
    yield from eng.expectations(list(eng.sweep(cfg.n_sites)), site_ops, bond_ops)


def first_bonds(base: DrivingConfig, lengths, bond_ops: dict) -> list:
    """The first bond dict {name: <O_1 P_2>} of local_expectations for each
    chain length n of lengths, in the order given, at base's driving, read
    from a sweep of the longest chain, which keeps only the env[n - 1] and
    env[n - 2] that they read; its cutoff k_exact is exact for every shorter
    chain. The levels <= 2 that n reads in env[n - 2] shrink against the
    levels above them, so a length whose values there fall below RESOLVED
    (n = 800 of 1600 at the baseline driving) waits for a sweep of the
    longest such length."""
    cfgs = {n: replace(base, n_sites=n) for n in lengths}
    bonds, todo = {}, sorted(cfgs, reverse=True)
    while todo:  # the longest chain always reads its own levels <= 2 at unit norm
        keep = {n - i for n in todo for i in (1, 2)}
        eng = _Environments(cfgs[todo[0]], keep)
        env = [X if k in keep else None for k, X in enumerate(eng.sweep(todo[0]))]
        for n in todo:
            if np.abs(env[n - 2][:eng.level(2)]).max() >= RESOLVED:
                bonds[n] = next(eng.expectations(env[:n], {}, bond_ops))[1]
        todo = [n for n in todo if n not in bonds]
    return [bonds[n] for n in lengths]


def pair_transfer(fam: LaxFamily, w: np.ndarray) -> np.ndarray:
    """Cross-check route for the environment engine: the dense
    (da^2 x da^2) pair transfer matrix

        F(w)[(a,c),(b,d)] = sum_{p,q,r} w[r,p] A[p,q,a,b] conj(A[r,q,c,d]).

    Products of these from <00| to |00> give tr(Omega Omega^dag W) for
    W = (x)_j w_j.
    """
    A = phys_transfer_tensor(fam.L)
    F = np.einsum("rp,pqab,rqcd->acbd", w, A, np.conj(A), optimize=True)
    da = fam.dim
    return F.reshape(da * da, da * da)


def mpo_expectation(cfg: DrivingConfig, site_ops: dict) -> complex:
    """Cross-check route for local_expectations: <prod_j O_j> in the steady
    state through dense pair transfer matrices, rebuilt on every call.

    site_ops maps 1-based site index -> 4x4 local operator; missing sites get
    the identity. Never builds rho, but each F(w) holds da^4 entries
    (da = 4K + 1), about 126 MB at n = 24, and the chain is not rescaled;
    use it on the short chains the tests compare against.
    """
    n = cfg.n_sites
    fam = ness_family(cfg)
    _, _, eta = map_driving_to_params(cfg)
    M_loc = np.diag(m_diag(1, eta)).astype(complex)
    F_id = pair_transfer(fam, M_loc)
    i0 = _root_index(fam.space)
    e0 = _basis(fam.dim ** 2, i0 * fam.dim + i0)

    def contract(ops):
        v = e0
        for j in range(1, n + 1):
            v = v @ ops.get(j, F_id)
        return v @ e0

    special = {j: pair_transfer(fam, M_loc @ np.asarray(op, dtype=complex))
               for j, op in site_ops.items()}
    num = contract(special)
    den = contract({})
    return num / den


# ---------------------------------------------------------------------------
# binary state dump

def dump_rho(path, rho: np.ndarray) -> None:
    """Binary dump: 8-byte magic, little-endian uint64 dimension, row-major
    complex128 payload, SHA-256 of the payload."""
    import hashlib  # here, not at module level: it maps libcrypto
    arr = np.ascontiguousarray(rho, dtype=np.complex128)
    payload = arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(RHO_MAGIC)
        fh.write(struct.pack("<Q", arr.shape[0]))
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


def load_rho(path) -> np.ndarray:
    import hashlib
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != RHO_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        (dim,) = struct.unpack("<Q", fh.read(8))
        payload = fh.read(dim * dim * 16)
        digest = fh.read(32)
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checksum mismatch in state dump")
    return np.frombuffer(payload, dtype=np.complex128).reshape(dim, dim).copy()
