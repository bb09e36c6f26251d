"""Steady state of the boundary-driven ladder from the transfer operator.

Pipeline: a driving configuration (rates and boundary potentials) maps to its
Lax family in one place, ness_family: the family parameters of
ness_lax_params at the cutoff k_exact(n), which the chain length truncates
exactly, so n alone fixes the cutoff. The transfer components are
contracted site by site from the highest-weight auxiliary vector to give
Omega; the steady state is

    rho = R / tr R,  R = Omega Omega^dagger M,

with M the diagonal exp(eta * sum_j (sz_j + tz_j)), eta = log(G_L/G_R)/2.

Omega conserves the charges (S, T) = (sum_j sz_j, sum_j tz_j): each
transfer component moves the charge of the auxiliary vertex
(AuxSpace.charges) by what its physical operator adds, which
linalg.sector_chain asserts. M is a scalar on each sector, so build_ness
contracts Omega one (S, T) sector at a time (linalg.sector_chain) and keeps
rho as the blocks exp(eta (S + T)) Omega_s Omega_s^dag / Z, positive
semidefinite sector by sector; its positivity diagnostic comes from the
singular values of the Omega_s, each released once read. The dense
4^n x 4^n rho is assembled from the blocks only on demand (NessResult.rho),
behind the guard: for the oracle, the Lindblad residual and the state dump,
up to n = 6. contract_omega is the dense chain: the commutation probe reads
its (S, T) blocks, and the tests take it as the reference; its cross-checks,
a factored chain and a matrix-free product (tests/conftest.py), never split
sectors, so the cutoff test (K against K + 1) compares different tensors.

Sign convention: the steady-state construction uses the family member at the
*opposite* sign of the spectral parameter returned by map_driving_to_params.
The boundary-condition checks (check_boundary_conditions) pin this sign: with
+lambda they fail at O(1), with -lambda they vanish to machine precision, as
does the Lindblad fixed-point residual for n >= 3. n = 2 is insensitive to
the choice, which is what makes the convention easy to get wrong.

Stationarity is certified from local identities, as in the paper, so no
n-site chain is contracted for it and its cost grows with the cutoff alone,
not as 16^n. stationarity_certificate takes the (cfg, fam) of build_ness and
returns three relative residuals: in the bulk, the two-site divergence of
the transfer components (algebra_verifier.check_gLOD) on that family,
between the auxiliary levels that the interior cuts of the chain reach,
together with the charge conservation of the bond Hamiltonian
(check_telescoping); at the ends, one dissipative equation each, read off
the root row and root column slabs of the doubled (bra-ket) site tensors on
the levels <= 1 that a single site reaches (build_double_lax,
check_boundary_conditions). Omega and the cross-check chains are all
contracted by the one contraction core in linalg: site tensors built by
linalg.lift, contracted whole by linalg.chain or sector by sector by
linalg.sector_chain, both of which refuse any contraction whose peak memory
estimate exceeds linalg.MAX_CHAIN_BYTES.

Local expectation values in the steady state come from an environment
engine (local_expectations) that never materializes rho: one sweep from each
end of the chain over the doubled auxiliary space, each environment
rescaled, with the pair transfer applied in numpy from the nonzeros of the
environments, which are block diagonal in the auxiliary charge, and from
the O(da) nonzeros of the transfer components (lax_builder.build_L), with
no dense family. Memory grows as n da^2 (da = 4K + 1, about 2n + 5), and
the store is guarded like linalg.chain, which admits chains up to n = 243.
One sweep of the longest chain serves a whole series of lengths
(first_bonds). mpo_expectation, with dense pair transfer matrices, is kept
as its cross-check for short chains.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .algebra_verifier import check_gLOD
from .aux_space import AuxSpace, AuxVertex, build_aux_space
from .hubbard_model import h_bond, h_end
from .lax_builder import LaxFamily, LaxParams, assemble_family, build_L
from .linalg import (SITE_CHARGES, chain, guard, local4, phys_transfer_tensor,
                     sector_chain, transfer_entries)

RHO_MAGIC = b"NESSRHO1"


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
    the commutation probe reads its (S, T) blocks, and the tests take it as
    the reference for the sector blocks of build_ness."""
    e0 = _basis(fam.dim, _root_index(fam.space))
    return chain([phys_transfer_tensor(fam.L)] * n_sites, e0, e0)


def m_diag(n_sites: int, eta: float) -> np.ndarray:
    """Diagonal of M = prod_j exp(eta (sz_j + tz_j)) in the product basis."""
    loc = np.exp(eta * (2 * SITE_CHARGES.sum(axis=1) - 2))  # sz + tz = 2 (up spins) - 2
    d = np.array([1.0])
    for _ in range(n_sites):
        d = np.kron(d, loc)
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


def _dense(n_sites: int, rows: list, blocks: list) -> np.ndarray:
    """The 4^n x 4^n matrix that holds each block on its sector rows."""
    require_state(n_sites, dense=True)
    out = np.zeros((4 ** n_sites,) * 2, dtype=complex)
    for r, b in zip(rows, blocks):
        out[np.ix_(r, r)] = b
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
        return _dense(self.cfg.n_sites, self.rows, self.rho_blocks)


def build_ness(cfg: DrivingConfig, fam: LaxFamily | None = None) -> NessResult:
    """rho = Omega Omega^dag M / Z, sector by sector, and its diagnostics.
    fam is the driving's ness_family, built here when not given.

    Omega conserves (S, T) and M is the scalar exp(eta (S + T)) on each
    sector, so rho_s = exp(eta (S + T)) Omega_s Omega_s^dag / Z with Omega_s
    from linalg.sector_chain. Its eigenvalues are exp(eta (S + T))
    sigma^2 / Z over the singular values sigma of Omega_s, which resolve the
    smallest one to eps sigma_max, so positivity_min_eig is read far below
    the eps ||rho|| floor of a dense eigensolver. Each Omega_s is released
    once its rho_s and sigma_min are read."""
    n = cfg.n_sites
    fam = ness_family(cfg) if fam is None else fam
    i0 = _root_index(fam.space)
    sectors = sector_chain([phys_transfer_tensor(fam.L)] * n, SITE_CHARGES,
                           fam.space.charges(), i0, i0)
    # the blocks, each rho_s in place of its Omega_s, two blocks'
    # temporaries at a time, and (1 MiB) the index arrays and the diagonal of M
    sizes = [om.size for _, _, om in sectors]
    guard(16 * (sum(sizes) + 2 * max(sizes)) + (1 << 20), f"{n}-site sector blocks")
    _, _, eta = map_driving_to_params(cfg)
    weights = m_diag(n, eta)[[r[0] for r, _, _ in sectors]]
    rows, blocks, smallest = [], [], []
    for w in weights:
        r, _, om = sectors.pop(0)
        rows.append(r)
        blocks.append(w * (om @ om.conj().T))
        smallest.append(w * np.linalg.svd(om, compute_uv=False)[-1] ** 2)
    tr = sum(np.trace(b).real for b in blocks)
    if tr == 0.0:
        raise RuntimeError("trace of Omega Omega^dag M vanished; inconsistent input")
    for b in blocks:
        b /= tr
    smallest = [s / tr for s in smallest]
    if sum(map(len, rows)) < 4 ** n:
        smallest.append(0.0)  # a sector that Omega does not reach
    diag = {
        "hermiticity": float(np.sqrt(sum(np.linalg.norm(b - b.conj().T) ** 2 for b in blocks)
                                     / sum(np.linalg.norm(b) ** 2 for b in blocks))),
        "trace_deviation": float(abs(sum(np.trace(b) for b in blocks) - 1.0)),
        "positivity_min_eig": float(min(smallest)),
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
    itself between outer levels <= K - 1 covers every cut.

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
    """The local stationarity certificate of the steady state that
    build_ness makes of cfg and fam, as relative residuals under the keys of
    the ness document: the two boundary equations (check_boundary_conditions)
    and the bulk (check_telescoping), each over its scale. It contracts no
    chain, so its cost grows with the cutoff alone."""
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
# from the left as X -> sum w[r,p] A_pq^T X conj(A_rq).

class _PairSide:
    """F(w) X for many w at once, summed over the nonzeros of X alone: from
    the right when built from the nonzeros A[p, q, a, b] = val of the
    transfer tensor (linalg.transfer_entries), from the left when built from
    them with a and b swapped. A itself is never formed.

    Each column A[p, q, :, b] holds at most two nonzeros, and F(w) conserves
    the auxiliary charge, so the environments are block diagonal in it, with
    about 3 da nonzeros of da^2. The part that does not depend on w,
    T[r, p, a, c] = sum_q sum_{X[b,d] != 0} A[p,q,a,b] X[b,d] conj(A[r,q,c,d]),
    is one bincount over the nonzeros of X, and one product contracts every
    w. It is exact for a dense X too."""

    def __init__(self, da: int, p, q, a, b, val):
        # per (b, q), the nonzeros of A[:, q, :, b] in (p, a) order, zero-padded to one width
        order = np.lexsort((a, p, q, b))
        col = (b * 4 + q)[order]
        slot = np.arange(len(col)) - np.searchsorted(col, col)
        self.val = np.zeros((da, 4, slot.max() + 1), dtype=complex)
        pa = np.zeros(self.val.shape, dtype=np.int64)
        self.val.reshape(4 * da, -1)[col, slot] = val[order]
        pa.reshape(4 * da, -1)[col, slot] = (p * da + a)[order]
        p, a = np.divmod(pa, da)
        # where an entry lands in T as the factor (p, a) and as the conjugate (r, c)
        self.first, self.second = (p * da + a) * da, p * 4 * da * da + a

    def apply(self, X: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """F(w) X for each w of the (m, 4, 4) stack ws, as [w, a, c]."""
        b, d = np.nonzero(X)
        idx = (self.first[b][..., :, None] + self.second[d][..., None, :]).ravel()
        val = (X[b, d, None, None, None] * self.val[b][..., :, None]
               * np.conj(self.val[d])[..., None, :]).ravel()
        # T[r, p] only at the (a, c) that the sum reaches, and the complex sum
        # as one real one, over interleaved (re, im) pairs
        rp, ac = np.divmod(idx, X.size)
        reached, slot = np.unique(ac, return_inverse=True)
        T = np.bincount((2 * (rp * len(reached) + slot)[:, None] + [0, 1]).ravel(),
                        val.view(float), minlength=32 * len(reached)).view(complex)
        out = np.zeros((len(ws), X.size), dtype=complex)
        out[:, reached] = ws.reshape(-1, 16) @ T.reshape(16, -1)
        return out.reshape(len(ws), *X.shape)


class _Environments:
    """The environment engine of one chain: its pair transfer from either
    side, its sweep from the right and the values read off it. The pair
    transfer comes from the nonzeros of the transfer components
    (lax_builder.build_L), O(da) of them; no dense Lax family or transfer
    tensor is formed. Refused before anything is built if the environment
    store would not fit, and before the sweep if a pair product could
    overflow."""

    def __init__(self, cfg: DrivingConfig):
        n, space = cfg.n_sites, build_aux_space(k_exact(cfg.n_sites))
        # n environments of da^2 entries, and beside them at one site 32 more:
        # F(w) X for the 7 left and 5 right weights of a profile, a temporary
        # of each and their products; 1 MiB for the O(da) tables
        guard(16 * space.dim ** 2 * (n + 32) + (1 << 20), f"{n}-site environment store")
        params = ness_lax_params(cfg)
        band = build_L(space, params)
        # |A| <= 4 max|L|, an entry of T in _PairSide.apply sums 16 products
        # of two entries of A and one of a unit-norm X, and the rescaling
        # sums the squares of F(w) X, 16 such entries each
        big = 4 * float(np.abs(np.concatenate([v for *_, v in band.values()])).max())
        entry = 16 * 16 * big * big
        if not entry * entry * space.dim ** 2 < math.inf:
            raise OverflowError(f"the pair transfer of the {n}-site chain at {params} "
                                f"overflows: 4 max|L| = {big:.3g}")
        p, q, a, b, val = transfer_entries(band, space.dim)
        self.right = _PairSide(space.dim, p, q, a, b, val)
        self.left = _PairSide(space.dim, p, q, b, a, val)
        self.m = m_diag(1, map_driving_to_params(cfg)[2])
        self.root = np.diag(_basis(space.dim, _root_index(space))).astype(complex)  # |00>

    def weights(self, ops) -> np.ndarray:
        """The stack of m O for the identity and each local operator O."""
        return np.array([self.m[:, None] * np.asarray(op) for op in [np.eye(4), *ops]])

    def sweep(self, n: int):
        """Yields env[k] ~ F_id^k |00> for k < n, each rescaled to unit norm,
        so that long chains cannot overflow."""
        X, w_id = self.root, self.weights([])
        yield X
        for _ in range(n - 1):
            X = self.right.apply(X, w_id)[0]
            X = X / np.linalg.norm(X)
            yield X

    def expectations(self, env: list, site_ops: dict, bond_ops: dict):
        """local_expectations of the len(env)-site chain, read off its
        environments env from the right."""
        n, n_site, L = len(env), len(site_ops), self.root
        w_left = self.weights([*site_ops.values(), *(op for op, _ in bond_ops.values())])
        w_right = self.weights([op for _, op in bond_ops.values()])
        for j in range(1, n + 1):
            V = self.left.apply(L, w_left)
            site = np.einsum("wac,ac->w", V[:n_site + 1], env[n - j])
            bond = {}
            if j < n:
                RV = self.right.apply(env[n - j - 1], w_right)
                pairs = np.einsum("wac,wac->w", V[[0, *range(n_site + 1, len(V))]], RV)
                bond = dict(zip(bond_ops, pairs[1:] / pairs[0]))
            yield dict(zip(site_ops, site[1:] / site[0])), bond
            L = V[0] / np.linalg.norm(V[0])


def local_expectations(cfg: DrivingConfig, site_ops: dict, bond_ops: dict):
    """Steady-state expectation values of one-site and two-site operators at
    every position of the chain, without rho, in one sweep each way: time
    and memory grow as n da^2, not as the da^4 of a dense pair transfer.

    site_ops maps a name to a 4x4 operator O, bond_ops a name to a pair
    (O, P) of them. Yields, for j = 1..n, the pair of dicts
    ({name: <O_j>}, {name: <O_j P_{j+1}>}), the second empty at j = n. The
    generator is lazy: a caller that needs only the first sites stops early.

    The sweep from the left reads each value as a ratio of two contractions
    at the same cut, <left| F(w_j) (F(w_{j+1})) |right> over <left| F_id
    (F_id) |right>, in which the rescaling of the environments cancels.
    """
    eng = _Environments(cfg)
    yield from eng.expectations(list(eng.sweep(cfg.n_sites)), site_ops, bond_ops)


def first_bonds(base: DrivingConfig, lengths, bond_ops: dict) -> list:
    """The first bond dict {name: <O_1 P_2>} of local_expectations for each
    chain length n of lengths, in the order given, at base's driving, all
    read from one sweep of the longest chain, which keeps only the env[n - 1]
    and env[n - 2] that they read. Its cutoff k_exact is exact for every
    shorter chain: cut j of an n-site chain reaches only levels <= min(j, n - j)."""
    cfg = max((replace(base, n_sites=n) for n in lengths), key=lambda c: c.n_sites)
    eng = _Environments(cfg)
    keep = {n - i for n in lengths for i in (1, 2)}
    env = [X if k in keep else None for k, X in enumerate(eng.sweep(cfg.n_sites))]
    return [next(eng.expectations(env[:n], {}, bond_ops))[1] for n in lengths]


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
    arr = np.ascontiguousarray(rho, dtype=np.complex128)
    payload = arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(RHO_MAGIC)
        fh.write(struct.pack("<Q", arr.shape[0]))
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


def load_rho(path) -> np.ndarray:
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
