"""Steady state of the boundary-driven ladder from the transfer operator.

Pipeline: a driving configuration (rates and boundary potentials) maps to the
family parameters; the transfer components are contracted site by site from
the highest-weight auxiliary vector to give Omega; the steady state is

    rho = R / tr R,  R = Omega Omega^dagger M,

with M the diagonal exp(eta * sum_j (sz_j + tz_j)), eta = log(G_L/G_R)/2.

Sign convention: the steady-state construction uses the family member at the
*opposite* sign of the spectral parameter returned by map_driving_to_params.
The boundary-condition checks (check_boundary_conditions) pin this sign: with
+lambda they fail at O(1), with -lambda they vanish to machine precision, as
does the Lindblad fixed-point residual for n >= 3. n = 2 is insensitive to
the choice, which is what makes the convention easy to get wrong.

The module also builds the doubled (bra-ket) single-site operators used by
the telescoping and boundary checks, and a pair-transfer engine that
evaluates local expectation values in the steady state without ever
materializing rho (used for n up to 8). Omega, the doubled chains and the
pair-transfer chains are all contracted by one helper, _chain, which refuses
any contraction whose peak memory estimate exceeds MAX_CHAIN_BYTES.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .aux_space import AuxVertex, build_aux_space
from .hubbard_model import h_left, h_right
from .lax_builder import LaxFamily, LaxParams, assemble_family
from .linalg import local4

TRUNCATION_RTOL = 1e-13
# Largest peak allocation, in bytes, that a contraction may make; a larger one
# is refused with MemoryError before anything is allocated.
MAX_CHAIN_BYTES = 1 << 30
RHO_MAGIC = b"NESSRHO1"


class TruncationError(RuntimeError):
    pass


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


def ness_family(cfg: DrivingConfig, cutoff_K=None) -> LaxFamily:
    K = k_exact(cfg.n_sites) if cutoff_K is None else int(cutoff_K)
    return assemble_family(K, ness_lax_params(cfg))


# ---------------------------------------------------------------------------
# transfer contraction

def phys_transfer_tensor(fam: LaxFamily) -> np.ndarray:
    """A[p, q, a, b] = sum_st (sigma^s tau^t)[p, q] * L^{st}[a, b]."""
    da = fam.dim
    A = np.zeros((4, 4, da, da), dtype=complex)
    for st, Lm in fam.L.items():
        A += local4(*st)[:, :, None, None] * Lm[None, None, :, :]
    return A


def _root_index(fam: LaxFamily) -> int:
    return fam.space.index[AuxVertex(0, +1)]


def _basis(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def _guard(nbytes: int, what: str) -> None:
    """Refuse a contraction whose peak allocation would exceed MAX_CHAIN_BYTES."""
    if nbytes > MAX_CHAIN_BYTES:
        raise MemoryError(
            f"{what} needs about {nbytes / 2**30:.1f} GiB, over the "
            f"{MAX_CHAIN_BYTES / 2**30:g} GiB limit"
        )


def _chain(tensors, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left| A_1 ... A_n |right> for site tensors A[p, q, a, b], as a
    (P^n, Q^n) matrix over the physical row (p_1..p_n) and column (q_1..q_n)
    indices.

    `right` is folded into the last tensor before that site is contracted,
    so the chain ends on one boundary row and never holds a copy of the
    output per auxiliary index. Each site is one tensordot over the
    auxiliary index; the physical indices stay interleaved (p_1 q_1 ... p_j
    q_j) in the rows of the intermediate, which makes every reshape free,
    until one transpose at the end.
    """
    n = len(tensors)
    P, Q = tensors[0].shape[:2]
    # Element counts of the intermediates: the boundary row, the (PQ)^j x D_j
    # partial products, and the result before and after the final transpose.
    sizes = [len(left)]
    sizes += [(P * Q) ** j * A.shape[3] for j, A in enumerate(tensors[:-1], 1)]
    sizes.append(2 * (P * Q) ** n)
    _guard(16 * max(a + b for a, b in zip(sizes, sizes[1:])), f"{n}-site contraction")
    cur = np.asarray(left)[None, :]
    for A in tensors[:-1]:
        cur = np.tensordot(cur, A, axes=(1, 2)).reshape(-1, A.shape[3])
    cur = np.tensordot(cur, np.tensordot(tensors[-1], right, axes=(3, 0)), axes=(1, 2))
    if P * Q == 1:
        # nothing to reorder, and the 2n axes below would pass numpy's limit
        # of 64 dimensions on long pair-transfer chains
        return cur.reshape(1, 1)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return cur.reshape((P, Q) * n).transpose(order).reshape(P ** n, Q ** n)


def contract_omega(fam: LaxFamily, n_sites: int) -> np.ndarray:
    """<0+| L_1 ... L_n |0+> by direct 16-component contraction."""
    e0 = _basis(fam.dim, _root_index(fam))
    return _chain([phys_transfer_tensor(fam)] * n_sites, e0, e0)


def contract_omega_factored(fam: LaxFamily, n_sites: int) -> np.ndarray:
    """Cross-check route for contract_omega: the same contraction applying
    the three factors of each transfer component separately (S, then T, then
    the interaction operator), with its own einsum chain."""
    from .linalg import PAULI, SPIN_LABELS

    da = fam.dim
    _guard(32 * da * 16 ** n_sites, f"{n_sites}-site factored contraction")
    AS = np.zeros((2, 2, da, da), dtype=complex)
    AT = np.zeros((2, 2, da, da), dtype=complex)
    for s in SPIN_LABELS:
        AS += PAULI[s][:, :, None, None] * fam.S[s][None, None, :, :]
        AT += PAULI[s][:, :, None, None] * fam.T[s][None, None, :, :]
    i0 = _root_index(fam)
    cur = np.zeros((da, 1, 1), dtype=complex)
    cur[i0, 0, 0] = 1.0
    for _ in range(n_sites):
        d = cur.shape[1]
        cur = np.einsum("aij,pqab->bipjq", cur, AS).reshape(da, d * 2, d * 2)
        d = cur.shape[1]
        cur = np.einsum("aij,pqab->bipjq", cur, AT).reshape(da, d * 2, d * 2)
        cur = np.einsum("aij,ab->bij", cur, fam.X)
    return cur[i0]


def omega_apply(fam: LaxFamily, n_sites: int, vec: np.ndarray) -> np.ndarray:
    """Matrix-free Omega @ vec; memory O(dim_aux * 4^n)."""
    da = fam.dim
    _guard(32 * da * 4 ** n_sites, f"{n_sites}-site matrix-free product")
    A = phys_transfer_tensor(fam)
    i0 = _root_index(fam)
    v = np.asarray(vec, dtype=complex).reshape(4 ** n_sites)
    # cur[a, P, R]: partial rows P over processed sites, remaining input R
    cur = v.reshape(1, 1, 4 ** n_sites)
    start = np.zeros((da,), dtype=complex)
    start[i0] = 1.0
    cur = start[:, None, None] * cur
    for j in range(n_sites):
        rest = 4 ** (n_sites - j - 1)
        c = cur.reshape(da, -1, 4, rest)
        cur = np.einsum("aiqr,pqab->bipr", c, A).reshape(da, -1, rest)
    return cur[i0, :, 0]


def omega_dense(cfg: DrivingConfig, cutoff_K=None, enforce_exactness: bool = True):
    """Omega for the driving configuration, with the cutoff-exactness guard:
    a cutoff below the exact bound triggers a K vs K+1 comparison and an
    error on mismatch."""
    n = cfg.n_sites
    K = k_exact(n) if cutoff_K is None else int(cutoff_K)
    fam = assemble_family(K, ness_lax_params(cfg))
    om = contract_omega(fam, n)
    if K < k_exact(n) and enforce_exactness:
        warnings.warn(
            f"cutoff K={K} below exactness bound {k_exact(n)} for n={n}; "
            "comparing against K+1"
        )
        om2 = contract_omega(assemble_family(K + 1, ness_lax_params(cfg)), n)
        if np.linalg.norm(om - om2) > TRUNCATION_RTOL * max(np.linalg.norm(om2), 1.0):
            raise TruncationError(
                f"transfer operator not converged at cutoff K={K} for n={n}"
            )
    return om


def m_diag(n_sites: int, eta: float) -> np.ndarray:
    """Diagonal of M = prod_j exp(eta (sz_j + tz_j)) in the product basis."""
    loc = np.array([np.exp(2 * eta), 1.0, 1.0, np.exp(-2 * eta)])
    d = np.array([1.0])
    for _ in range(n_sites):
        d = np.kron(d, loc)
    return d


# ---------------------------------------------------------------------------
# the steady state

@dataclass
class NessResult:
    cfg: DrivingConfig
    omega_op: np.ndarray
    rho: np.ndarray
    eta: float
    lax_params: LaxParams
    cutoff_K: int
    diagnostics: dict = field(default_factory=dict)


def build_ness(cfg: DrivingConfig, cutoff_K=None, compute_spectrum: bool = True) -> NessResult:
    """Assemble rho = Omega Omega^dag M / tr(...) and its sanity diagnostics."""
    n = cfg.n_sites
    K = k_exact(n) if cutoff_K is None else int(cutoff_K)
    om = omega_dense(cfg, cutoff_K=K)
    _, _, eta = map_driving_to_params(cfg)
    d = m_diag(n, eta)
    R = (om @ om.conj().T) * d[None, :]
    tr = np.trace(R)
    if abs(tr) == 0.0:
        raise RuntimeError("trace of Omega Omega^dag M vanished; inconsistent input")
    rho = R / tr
    herm = float(np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho))
    diag = {
        "hermiticity": herm,
        "trace_deviation": float(abs(np.trace(rho) - 1.0)),
    }
    if compute_spectrum:
        w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        diag["positivity_min_eig"] = float(w.min())
    return NessResult(
        cfg=cfg, omega_op=om, rho=rho, eta=float(eta),
        lax_params=ness_lax_params(cfg), cutoff_K=K, diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# doubled operators (bra and ket copies of the auxiliary space)

@dataclass
class DoubleLax:
    cfg: DrivingConfig
    fam: LaxFamily
    LL: np.ndarray       # site operator on (aux x aux) (x) C4
    LLt: np.ndarray      # its divergence partner
    YY: np.ndarray       # doubled spectral operator, ((aux x aux) * 4) sized
    YY_aux: np.ndarray   # same restricted to the doubled auxiliary space
    M_loc: np.ndarray    # single-site filter diag(e^{2eta},1,1,e^{-2eta})
    root: int            # index of (0+, 0+) in the doubled auxiliary space

    @property
    def daux2(self) -> int:
        return self.fam.dim ** 2


def build_double_lax(cfg: DrivingConfig, cutoff_K=None, lax_params=None) -> DoubleLax:
    """Site-local doubled operators: LL = L Lbar M, LLt = (Lt Lbar - L Lbar_t) M,
    YY = Y (x) 1 - 1 (x) conj(Y).

    The conjugate (bar) copy is the elementwise complex conjugate family with
    transposed physical factors; it shares the same auxiliary space.
    lax_params overrides the family parameters derived from the driving (used
    by the necessity probes, which perturb the spectral parameter on purpose).
    """
    K = k_exact(cfg.n_sites) if cutoff_K is None else int(cutoff_K)
    fam = assemble_family(K, ness_lax_params(cfg) if lax_params is None else lax_params)
    da = fam.dim
    _, _, eta = map_driving_to_params(cfg)
    M_loc = np.diag(m_diag(1, eta)).astype(complex)
    Ia = np.eye(da)
    kr = np.kron
    U = np.zeros((da * da * 4, da * da * 4), dtype=complex)
    V = np.zeros_like(U)
    Ut = np.zeros_like(U)
    Vt = np.zeros_like(U)
    for st, Lm in fam.L.items():
        p4 = local4(*st)
        U += kr(kr(Lm, Ia), p4)
        V += kr(kr(Ia, np.conj(Lm)), p4.T)
        Ut += kr(kr(fam.Ltilde[st], Ia), p4)
        Vt += kr(kr(Ia, np.conj(fam.Ltilde[st])), p4.T)
    D2 = kr(np.eye(da * da), M_loc)
    LL = U @ V @ D2
    LLt = (Ut @ V - U @ Vt) @ D2
    YY_aux = kr(fam.Y, Ia) - kr(Ia, np.conj(fam.Y))
    YY = kr(YY_aux, np.eye(4))
    i0 = _root_index(fam)
    return DoubleLax(cfg=cfg, fam=fam, LL=LL, LLt=LLt, YY=YY, YY_aux=YY_aux,
                     M_loc=M_loc, root=i0 * da + i0)


def _double_tensor(op: np.ndarray, daux2: int) -> np.ndarray:
    """Reshape a doubled site operator to A[p, q, a, b] over the doubled
    auxiliary index."""
    r = op.reshape(daux2, 4, daux2, 4)
    return r.transpose(1, 3, 0, 2)


def double_contract(dlax: DoubleLax, n_sites: int, special=None) -> np.ndarray:
    """<00| O_1 ... O_n |00> where O_j defaults to LL and `special` may remap
    individual sites (dict j -> matrix), 1-based. With no remapping this is
    R = Omega Omega^dag M reproduced through the doubled route."""
    special = special or {}
    tensors = [_double_tensor(special.get(j, dlax.LL), dlax.daux2)
               for j in range(1, n_sites + 1)]
    e0 = _basis(dlax.daux2, dlax.root)
    return _chain(tensors, e0, e0)


# ---------------------------------------------------------------------------
# telescoping and boundary residual checks

def _pair_interior_mask(fam: LaxFamily, max_pair_level: float) -> np.ndarray:
    lv = fam.space.levels()
    pair = (lv[:, None] + lv[None, :]).ravel()
    return pair <= max_pair_level + 1e-9


def check_telescoping(dlax: DoubleLax, n_sites: int, tol: float = 1e-10):
    """Contracted telescoping residual: the commutator of the Hamiltonian bulk
    with <00|LL_1...LL_n|00> must equal the two boundary leftovers
    <00|(LLt_1 + {YY, LL_1}) LL_2 ... |00> - <00| ... (LLt_n + {LL_n, YY})|00>.

    Returns (residual_fro, scale). For n = 2 the uncontracted operator
    identity is also checked and the maximum of both residuals returned.
    """
    from .hubbard_model import h_bond

    R = double_contract(dlax, n_sites)
    # the literal bond sum sum_j h_{j,j+1} (u/2 on the two boundary sites,
    # unlike the full Hamiltonian)
    hb = h_bond(dlax.cfg.u)
    dim = 4 ** n_sites
    Hbulk = np.zeros((dim, dim), dtype=complex)
    for j in range(1, n_sites):
        Hbulk += np.kron(
            np.kron(np.eye(4 ** (j - 1)), hb), np.eye(4 ** (n_sites - j - 1))
        )
    lhs = Hbulk @ R - R @ Hbulk
    left_end = dlax.LLt + dlax.YY @ dlax.LL + dlax.LL @ dlax.YY
    right_end = dlax.LLt + dlax.LL @ dlax.YY + dlax.YY @ dlax.LL
    rhs = double_contract(dlax, n_sites, special={1: left_end}) - double_contract(
        dlax, n_sites, special={n_sites: right_end}
    )
    res = float(np.linalg.norm(lhs - rhs))
    scale = float(max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0))
    if n_sites == 2:
        full = _telescoping_full_two_site(dlax)
        res = max(res, full[0] * scale / max(full[1], 1e-300))
    return res, scale


def _telescoping_full_two_site(dlax: DoubleLax):
    """Uncontracted two-site telescoping identity on (aux x aux) (x) C4 (x) C4."""
    from .hubbard_model import h_bond

    D2 = dlax.daux2
    kr = np.kron
    I4 = np.eye(4)
    ID = np.eye(D2)

    def embed(op, which):
        A = _double_tensor(op, D2)
        if which == 1:
            M = np.einsum("pqab,ij->apibqj", A, I4)
        else:
            M = np.einsum("pqab,ij->aipbjq", A, I4)
        return M.reshape(D2 * 16, D2 * 16)

    LL1, LL2 = embed(dlax.LL, 1), embed(dlax.LL, 2)
    LLt1, LLt2 = embed(dlax.LLt, 1), embed(dlax.LLt, 2)
    YYf = kr(dlax.YY_aux, np.eye(16))
    hf = kr(ID, h_bond(dlax.cfg.u))
    prod = LL1 @ LL2
    lhs = hf @ prod - prod @ hf
    rhs = (LLt1 + YYf @ LL1 + LL1 @ YYf) @ LL2 - LL1 @ (LLt2 + LL2 @ YYf + YYf @ LL2)
    # interior projection on the doubled auxiliary level
    mask = _pair_interior_mask(dlax.fam, dlax.fam.space.cutoff_K - 1)
    P = kr(np.diag(mask.astype(float)), np.eye(16))
    res = float(np.linalg.norm(P @ (lhs - rhs) @ P))
    scale = float(max(np.linalg.norm(P @ rhs @ P), 1.0))
    return res, scale


def _dissipator_slab(op4: np.ndarray, LL: np.ndarray, daux2: int) -> np.ndarray:
    A = np.kron(np.eye(daux2), op4)
    Ad = A.conj().T
    return 2.0 * A @ LL @ Ad - Ad @ A @ LL - LL @ Ad @ A


def check_boundary_conditions(dlax: DoubleLax, tol: float = 1e-10):
    """Residuals of the two single-site boundary identities.

    Left:  i G_L (D_{s+} + D_{t+}) LL + LLt + LL YY + [h_L, LL]  -> row slab
           at the doubled root vanishes;
    Right: i G_R (D_{s-} + D_{t-}) LL - LLt - YY LL + [h_R, LL]  -> column
           slab at the doubled root vanishes.

    Slabs are restricted to interior doubled levels (pair level <= K - 1).
    Returns dict with residuals and the common scale.
    """
    cfg = dlax.cfg
    D2 = dlax.daux2
    kr = np.kron
    hL = kr(np.eye(D2), h_left(cfg.u, cfg.mu_L))
    hR = kr(np.eye(D2), h_right(cfg.u, cfg.mu_R))
    OL = (
        1j * cfg.gamma_L * (
            _dissipator_slab(local4("+", "0"), dlax.LL, D2)
            + _dissipator_slab(local4("0", "+"), dlax.LL, D2)
        )
        + dlax.LLt + dlax.LL @ dlax.YY + hL @ dlax.LL - dlax.LL @ hL
    )
    OR = (
        1j * cfg.gamma_R * (
            _dissipator_slab(local4("-", "0"), dlax.LL, D2)
            + _dissipator_slab(local4("0", "-"), dlax.LL, D2)
        )
        - dlax.LLt - dlax.YY @ dlax.LL + hR @ dlax.LL - dlax.LL @ hR
    )
    mask = _pair_interior_mask(dlax.fam, dlax.fam.space.cutoff_K - 1)
    OLr = OL.reshape(D2, 4, D2, 4)
    ORr = OR.reshape(D2, 4, D2, 4)
    left = float(np.linalg.norm(OLr[dlax.root][:, mask, :]))
    right = float(np.linalg.norm(ORr[:, :, dlax.root, :][mask]))
    Lt = dlax.LLt.reshape(D2, 4, D2, 4)
    scale = float(max(
        np.linalg.norm(Lt[dlax.root][:, mask, :]),
        np.linalg.norm(Lt[:, :, dlax.root, :][mask]),
        1.0,
    ))
    return {
        "left_residual": left,
        "right_residual": right,
        "scale": scale,
        "left_passed": left <= tol * scale,
        "right_passed": right <= tol * scale,
    }


# ---------------------------------------------------------------------------
# pair-transfer expectation engine (no dense rho)

def pair_transfer(fam: LaxFamily, w: np.ndarray) -> np.ndarray:
    """F(w)[(a,c),(b,d)] = sum_{p,q,r} w[r,p] A[p,q,a,b] conj(A[r,q,c,d]).

    Products of these from <00| to |00> give tr(Omega Omega^dag W) for
    W = (x)_j w_j.
    """
    A = phys_transfer_tensor(fam)
    F = np.einsum("rp,pqab,rqcd->acbd", w, A, np.conj(A), optimize=True)
    da = fam.dim
    return F.reshape(da * da, da * da)


def mpo_expectation(cfg: DrivingConfig, site_ops: dict, cutoff_K=None) -> complex:
    """<prod_j O_j> in the steady state via pair transfer matrices.

    site_ops maps 1-based site index -> 4x4 local operator; missing sites get
    the identity. Never builds rho; works to n = 8 comfortably.
    """
    n = cfg.n_sites
    fam = ness_family(cfg, cutoff_K)
    _, _, eta = map_driving_to_params(cfg)
    M_loc = np.diag(m_diag(1, eta)).astype(complex)
    F_id = pair_transfer(fam, M_loc)
    i0 = _root_index(fam)
    e0 = _basis(fam.dim ** 2, i0 * fam.dim + i0)

    def chain(ops):
        # [1, 1, a, b] views of the transfer matrices; never copied
        return _chain([ops.get(j, F_id)[None, None] for j in range(1, n + 1)], e0, e0)[0, 0]

    special = {j: pair_transfer(fam, M_loc @ np.asarray(op, dtype=complex))
               for j, op in site_ops.items()}
    num = chain(special)
    den = chain({})
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
