"""Shared driving configurations for the oracle cross-checks, the kron-built
reference operators (site operators, the Hamiltonian from its global formula,
the bond current and the Lindblad generator, all scipy CSR) that the
local-term code of the package is checked against, the whole doubled site
tensors and the global telescoping of the doubled chain that the local
stationarity certificate is checked against, the dense bond divergence that
the level-windowed check_gLOD is checked against, numpy's own default_rng
draws of the spectral points that sample_params and sample_pairs (drawn
without numpy.random) are checked against, the CSR pair transfer that the
environment engine's is checked against, the dense-environment engine that
the charge-block one is checked against, the factored and matrix-free
contractions of Omega that contract_omega is checked against, the dense
steady state that the sector blocks of build_ness are checked against,
tr(rho O) for the dense reader of observables, the species-swap and
total-magnetization operators the symmetry tests use, the auxiliary-space
gauge the gauge-invariance tests apply, and the text labels of auxiliary
vertices the operator-table tests read.
"""

import numpy as np
import scipy.sparse as sp

from hubbard_lax.algebra_verifier import _cut, annulus_points, residual_report
from hubbard_lax.aux_space import AuxSpace, AuxVertex, build_aux_space
from hubbard_lax.hubbard_model import SIGMA, TAU, h_bond, phys_dim
from hubbard_lax.lax_builder import LaxFamily, LaxParams, build_L
from hubbard_lax.linalg import PAULI, chain, guard, lift, phys_transfer_tensor, transfer_entries
from hubbard_lax.ness_engine import (DrivingConfig, contract_omega, k_exact, m_diag,
                                    map_driving_to_params, ness_family, ness_lax_params)

# asymmetric rates, asymmetric potentials, and a symmetric-rate control
CANONICAL_DRIVINGS = (
    (1.5, 0.7, 0.3, -0.4, 2.0),
    (2.0, 1.0, 0.0, 0.0, 1.0),
    (1.0, 1.0, 0.5, 0.5, -0.5),
)


def canonical_configs(n_sites):
    return [DrivingConfig(*d, n_sites) for d in CANONICAL_DRIVINGS]


def kron_site_operator(n: int, j: int, species: int, s: str) -> sp.csr_matrix:
    """Reference: the operator s (one of +,-,0,z) on the sigma (species=0) or
    tau (species=1) qubit of site j (1-based), identity elsewhere, by kron."""
    if not 1 <= j <= n:
        raise ValueError(f"site index {j} out of range 1..{n}")
    before = 2 * (j - 1) + species  # qubits left of the one acted on
    left = sp.identity(2**before, format="csr", dtype=complex)
    right = sp.identity(2 ** (2 * n - before - 1), format="csr", dtype=complex)
    return sp.kron(sp.kron(left, PAULI[s], format="csr"), right, format="csr")


def kron_hamiltonian(n: int, u: float, mu_L: float = 0.0, mu_R: float = 0.0) -> sp.csr_matrix:
    """Reference: H from its global formula, term by term from kron-built
    site operators, independent of the local terms h_bond, h_end."""
    op = kron_site_operator
    H = sp.csr_matrix((phys_dim(n), phys_dim(n)), dtype=complex)
    for j in range(1, n):
        for q in (SIGMA, TAU):
            H = H + 2.0 * (op(n, j, q, "+") @ op(n, j + 1, q, "-")
                           + op(n, j, q, "-") @ op(n, j + 1, q, "+"))
    for j in range(1, n + 1):
        H = H + u * (op(n, j, SIGMA, "z") @ op(n, j, TAU, "z"))
    H = H + 0.5 * mu_L * (op(n, 1, SIGMA, "z") + op(n, 1, TAU, "z"))
    H = H + 0.5 * mu_R * (op(n, n, SIGMA, "z") + op(n, n, TAU, "z"))
    return H.tocsr()


def current_operator(n: int, j: int, species: int) -> sp.csr_matrix:
    """Reference: J_{j,j+1} = 4i (x+_j x-_{j+1} - x-_j x+_{j+1}) for species x."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"bond index {j} out of range 1..{n - 1}")
    op = kron_site_operator
    return 4j * (op(n, j, species, "+") @ op(n, j + 1, species, "-")
                 - op(n, j, species, "-") @ op(n, j + 1, species, "+"))


def _kron_generator_parts(cfg: DrivingConfig):
    """The CSR H and jumps sqrt(G_L) s+_1, sqrt(G_L) t+_1, sqrt(G_R) s-_n,
    sqrt(G_R) t-_n of the reference generator."""
    n = cfg.n_sites
    H = kron_hamiltonian(n, cfg.u, cfg.mu_L, cfg.mu_R)
    gl, gr = np.sqrt(cfg.gamma_L), np.sqrt(cfg.gamma_R)
    jumps = [gl * kron_site_operator(n, 1, SIGMA, "+"), gl * kron_site_operator(n, 1, TAU, "+"),
             gr * kron_site_operator(n, n, SIGMA, "-"), gr * kron_site_operator(n, n, TAU, "-")]
    return H, jumps


def kron_lindbladian(cfg: DrivingConfig, rho: np.ndarray) -> np.ndarray:
    """Reference: -i[H, rho] + sum_k (2 L_k rho L_k^dag - {L_k^dag L_k, rho})
    with the CSR H and jumps, term by term as written."""
    H, jumps = _kron_generator_parts(cfg)
    out = -1j * (H @ rho - rho @ H)
    for L in jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out += 2.0 * L @ rho @ Ld - LdL @ rho - rho @ LdL
    return out


def kron_superoperator(cfg: DrivingConfig) -> sp.csr_matrix:
    """Reference: the full 16^n x 16^n CSR generator (row-major vectorization),

        S = -i (H (x) 1 - 1 (x) H^T)
            + sum_k [ 2 L_k (x) conj(L_k) - (L_k^dag L_k) (x) 1 - 1 (x) (L_k^dag L_k)^T ].
    """
    H, jumps = _kron_generator_parts(cfg)
    eye = sp.identity(H.shape[0], format="csr")
    S = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
    for L in jumps:
        LdL = L.conj().T @ L
        S = S + 2.0 * sp.kron(L, L.conj()) - sp.kron(LdL, eye) - sp.kron(eye, LdL.T)
    return S.tocsr()


def doubled_tensors(cfg: DrivingConfig, fam: LaxFamily):
    """Reference: the whole doubled site tensors whose root slabs
    build_double_lax keeps, as (LL, LLt, YY, root):

        LL[p, q, (ac), (bd)] = sum_r A[p, r, a, b] conj(A[q, r, c, d]) m[q],

    LLt the same pairing with the tensor of Ltilde in one factor, then the
    other, YY = Y (x) 1 - 1 (x) conj(Y) as a da^2 x da^2 matrix, and root the
    doubled index of (0+, 0+)."""
    da = fam.dim
    _, _, eta = map_driving_to_params(cfg)
    m = m_diag(1, eta)
    A, At = phys_transfer_tensor(fam.L), phys_transfer_tensor(fam.Ltilde)

    def pair(X, Z):
        T = np.einsum("prab,qrcd,q->pqacbd", X, np.conj(Z), m)
        return T.reshape(4, 4, da * da, da * da)

    eye = np.eye(da)
    YY = np.kron(fam.Y, eye) - np.kron(eye, np.conj(fam.Y))
    i0 = fam.space.index[AuxVertex(0, +1)]
    return pair(A, A), pair(At, A) - pair(A, At), YY, i0 * da + i0


def telescoping_terms(cfg: DrivingConfig, fam: LaxFamily, n_sites: int, rows: np.ndarray):
    """Reference: the two sides of the telescoping identity of the doubled
    chain between boundary rows `rows` of the doubled auxiliary space (one
    vector, or a block of them taken at both ends), as (lhs, rhs):

        lhs = [H_bulk, <rows| LL_1 ... LL_n |rows>],
        rhs = <rows| E_1 LL_2 ... LL_n |rows> - <rows| LL_1 ... LL_{n-1} E_n |rows>,

    with the boundary leftover E = LLt + {YY, LL}.
    """
    LL, LLt, YY, _ = doubled_tensors(cfg, fam)
    R = chain([LL] * n_sites, rows, rows)
    # the literal bond sum sum_j h_{j,j+1} (u/2 on the two boundary sites,
    # unlike the full Hamiltonian), each bond term applied to its two sites
    # of the physical row and column indices of R
    h = h_bond(cfg.u).reshape(4, 4, 4, 4)
    lead = R.ndim - 2
    Rs = R.reshape(R.shape[:lead] + (4,) * (2 * n_sites))
    lhs = np.zeros_like(Rs)
    for j in range(n_sites - 1):
        rows_j = [lead + j, lead + j + 1]
        cols_j = [lead + n_sites + j, lead + n_sites + j + 1]
        lhs += np.moveaxis(np.tensordot(h, Rs, axes=([2, 3], rows_j)), [0, 1], rows_j)
        lhs -= np.moveaxis(np.tensordot(Rs, h, axes=(cols_j, [0, 1])), [-2, -1], cols_j)
    lhs = lhs.reshape(R.shape)
    E = LLt + YY @ LL + LL @ YY
    rhs = (chain([E] + [LL] * (n_sites - 1), rows, rows)
           - chain([LL] * (n_sites - 1) + [E], rows, rows))
    return lhs, rhs


def global_telescoping(cfg: DrivingConfig, fam: LaxFamily, n_sites: int):
    """Global witness for the local certificate (ness_engine.check_telescoping
    with check_boundary_conditions): the telescoping of the whole doubled
    n-site chain, contracted at the doubled root, and at n = 2 also open
    between every pair of interior doubled levels (pair level <= K - 1), that
    residual put on the root scale. Returns (residual_fro, scale); it holds
    16^n da^2 entries, so use it on short chains."""
    i0, da2 = fam.space.index[AuxVertex(0, +1)], fam.dim ** 2
    lhs, rhs = telescoping_terms(cfg, fam, n_sites, np.eye(da2)[i0 * fam.dim + i0])
    res = float(np.linalg.norm(lhs - rhs))
    scale = float(max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0))
    if n_sites == 2:
        lv = fam.space.levels()
        interior = (lv[:, None] + lv[None, :]).ravel() <= fam.space.cutoff_K - 1 + 1e-9
        lhs, rhs = telescoping_terms(cfg, fam, 2, np.eye(da2)[interior])
        open_scale = max(np.linalg.norm(rhs), 1.0)
        res = max(res, float(np.linalg.norm(lhs - rhs)) * scale / open_scale)
    return res, scale


def dense_gLOD(fam: LaxFamily, target_K=None, tol=1e-10):
    """Cross-check for algebra_verifier.check_gLOD, which sums the bond
    divergence one level window at a time: the same residual formed whole,
    as the dense (m, m, 16, 16) chain over every pair of outer vertices of
    the level <= K prefix, the middle index over the whole family."""
    K, m = _cut(fam, target_K)
    E = np.eye(fam.dim)[:m]
    A, At = phys_transfer_tensor(fam.L), phys_transfer_tensor(fam.Ltilde)
    h = h_bond(fam.params.u)
    L12 = chain([A, A], E, E)
    hL12 = h @ L12
    rhs = chain([At + fam.Y @ A, A], E, E) - chain([A, At + A @ fam.Y], E, E)
    diff = hL12 - L12 @ h - rhs
    return residual_report("bond_divergence", fam.params, K, diff,
                           max(np.linalg.norm(hL12), np.linalg.norm(rhs)), tol)


def numpy_sample_params(num: int, seed: int = 42) -> list:
    """Cross-check for algebra_verifier.sample_params, which draws from
    SeededStream: the same points drawn from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num):
        lam, om = annulus_points(rng, 2)
        u = float(rng.choice([0.5, -0.5, 1.0, -1.0, 2.0, -2.0]))
        out.append(LaxParams(lam, om, u))
    return out


def numpy_sample_pairs(num: int, seed: int = 42) -> list:
    """Cross-check for transfer_commutativity.sample_pairs: the same pairs
    drawn from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(num):
        l1, o1, l2, o2 = annulus_points(rng, 4)
        pairs.append(((l1, o1), (l2, o2)))
    return pairs


def off_root_ltilde_defect(fam: LaxFamily):
    """Scale by 1.01, in place, the largest entry of the Ltilde components
    between two vertices of level K - 1, the highest level an interior cut
    reaches: the bulk certificate reads it only through its outermost levels.
    The root slabs of the boundary equations never read it, and Omega, built
    from L alone, does not change."""
    top = np.isclose(fam.space.levels(), fam.space.cutoff_K - 1)
    mask = np.outer(top, top)
    st = max(fam.Ltilde, key=lambda k: np.abs(fam.Ltilde[k][mask]).max())
    a, b = np.unravel_index(np.argmax(np.abs(fam.Ltilde[st]) * mask), mask.shape)
    fam.Ltilde[st][a, b] *= 1.01
    return fam


class CsrPairSide:
    """Cross-check of the environment engine's pair transfer
    (ness_engine._PairSide): F(w) applied from one side through scipy CSR
    blocks of the transfer tensor, for many w at once, with work that grows
    as da^2 whatever the nonzeros of X.

    Built from A[p, q, a, b] it applies F(w) from the right; built from A
    with its two auxiliary indices swapped, from the left. The two sparse
    products do not depend on w, so the local matrices are contracted in
    afterwards, all of them in one small product.
    """

    def __init__(self, A: np.ndarray):
        da = A.shape[2]
        self.da = da
        At = A.transpose(0, 2, 1, 3)  # [p, a, q, b]
        # rows (p, a, q), columns b: every A_pq X in one product
        self._first = sp.csr_matrix(At.reshape(16 * da, da))
        # rows (c, r), columns (q, d): the conj(A_rq) factor
        self._second = sp.csr_matrix(np.conj(At).transpose(1, 0, 2, 3).reshape(4 * da, 4 * da))

    def apply(self, X: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """F(w) X for each w of the (m, 4, 4) stack ws, as [w, a, c]."""
        da = self.da
        D = (self._first @ X).reshape(4 * da, 4 * da)        # [(p, a), (q, d)]
        T = self._second @ np.ascontiguousarray(D.T)         # [(c, r), (p, a)]
        out = ws.reshape(-1, 16) @ T.reshape(da, 16, da)     # [c, w, a]
        return out.transpose(1, 2, 0)


class DensePairSide:
    """Cross-check of the environment engine's pair transfer
    (ness_engine._PairSide), as the engine held it before it kept each
    environment as its charge-block values: F(w) X on a dense da x da X,
    summed over the nonzeros of X, with each column A[p, q, :, b] zero-padded
    to the widest one and a dense da x da result. Built from the nonzeros
    A[p, q, a, b] = val it applies F(w) from the right, and with a and b
    swapped, from the left."""

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
        rp, ac = np.divmod(idx, X.size)
        reached, slot = np.unique(ac, return_inverse=True)
        T = np.bincount((2 * (rp * len(reached) + slot)[:, None] + [0, 1]).ravel(),
                        val.view(float), minlength=32 * len(reached)).view(complex)
        out = np.zeros((len(ws), X.size), dtype=complex)
        out[:, reached] = ws.reshape(-1, 16) @ T.reshape(16, -1)
        return out.reshape(len(ws), *X.shape)


class DenseEnvironments:
    """Cross-check of the environment engine (ness_engine._Environments) as
    it was before it kept each environment as its charge-block values:
    dense da x da environments, swept and read with DensePairSide. Its pair
    transfer comes from the nonzeros of build_L, or from those of a given
    dense transfer tensor A."""

    def __init__(self, cfg: DrivingConfig, A=None):
        space = build_aux_space(k_exact(cfg.n_sites))
        guard(16 * space.dim ** 2 * (cfg.n_sites + 32) + (1 << 20),
              f"{cfg.n_sites}-site dense environment store")
        if A is None:
            p, q, a, b, val = transfer_entries(build_L(space, ness_lax_params(cfg)), space.dim)
        else:
            p, q, a, b = np.nonzero(A)
            val = A[p, q, a, b]
        self.right = DensePairSide(space.dim, p, q, a, b, val)
        self.left = DensePairSide(space.dim, p, q, b, a, val)
        self.m = m_diag(1, map_driving_to_params(cfg)[2])
        self.root = np.zeros((space.dim, space.dim), dtype=complex)
        self.root[0, 0] = 1.0  # |00>, the root vertex 0+ first

    def weights(self, ops) -> np.ndarray:
        return np.array([self.m[:, None] * np.asarray(op) for op in [np.eye(4), *ops]])

    def sweep(self, n: int):
        X, w_id = self.root, self.weights([])
        yield X
        for _ in range(n - 1):
            X = self.right.apply(X, w_id)[0]
            X = X / np.linalg.norm(X)
            yield X

    def expectations(self, env: list, site_ops: dict, bond_ops: dict):
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

    def first_bonds(self, lengths, bond_ops: dict) -> list:
        """The first bond of each chain length, from one sweep of this chain."""
        keep = {n - i for n in lengths for i in (1, 2)}
        env = [X if k in keep else None for k, X in enumerate(self.sweep(max(lengths)))]
        return [next(self.expectations(env[:n], {}, bond_ops))[1] for n in lengths]


def contract_omega_factored(fam: LaxFamily, n_sites: int) -> np.ndarray:
    """Cross-check of ness_engine.contract_omega: the same contraction
    applying the three factors of each transfer component separately (S,
    then T, then the interaction operator), with its own einsum chain."""
    da = fam.dim
    guard(32 * da * 16 ** n_sites, f"{n_sites}-site factored contraction")
    AS, AT = lift(PAULI, fam.S), lift(PAULI, fam.T)
    i0 = fam.space.index[AuxVertex(0, +1)]
    cur = np.eye(da)[i0][:, None, None]
    for _ in range(n_sites):
        for F in (AS, AT):
            d = cur.shape[1]
            cur = np.einsum("aij,pqab->bipjq", cur, F).reshape(da, d * 2, d * 2)
        cur = np.einsum("aij,ab->bij", cur, fam.X)
    return cur[i0]


def omega_apply(fam: LaxFamily, n_sites: int, vec: np.ndarray) -> np.ndarray:
    """Cross-check of ness_engine.contract_omega: matrix-free Omega @ vec,
    memory O(dim_aux * 4^n). It probes the cutoff exactness (K vs K+1) at
    n = 7, 8, where the dense Omega is not formed."""
    da = fam.dim
    # the partial product, tensordot's transposed copy of it, and the result
    guard(48 * da * 4 ** n_sites, f"{n_sites}-site matrix-free product")
    A = phys_transfer_tensor(fam.L)
    # cur[R, P, a]: remaining input R, whose leading digit is the next site's
    # input q, then the rows P over the processed sites. Each site is one
    # tensordot, and its result (r, P, p, b) is already that layout.
    i0 = fam.space.index[AuxVertex(0, +1)]
    cur = np.zeros((4 ** n_sites, 1, da), dtype=complex)
    cur[:, 0, i0] = vec
    for _ in range(n_sites):
        cur = np.tensordot(cur.reshape(4, -1, cur.shape[1], da), A, axes=([0, 3], [1, 2]))
        cur = cur.reshape(cur.shape[0], -1, da)
    return cur[0, :, i0]


def dense_reference_rho(cfg: DrivingConfig) -> np.ndarray:
    """Reference: the steady state from the dense Omega of contract_omega,
    rho = Omega Omega^dag M / tr(Omega Omega^dag M)."""
    n = cfg.n_sites
    om = contract_omega(ness_family(cfg), n)
    R = (om @ om.conj().T) * m_diag(n, map_driving_to_params(cfg)[2])[None, :]
    return R / np.trace(R)


def expectation(rho: np.ndarray, obs) -> complex:
    """Cross-check of the dense reader of observables: tr(rho @ obs) =
    sum_ij rho[j, i] obs[i, j] for a full-size obs, in O(nnz) for a sparse
    one."""
    sparse = hasattr(obs, "multiply")
    obs = obs if sparse else np.asarray(obs)
    if rho.shape != obs.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {obs.shape}")
    return complex((obs.multiply(rho.T) if sparse else rho.T * obs).sum())


def spin_flip_G(n: int) -> sp.csr_matrix:
    """Global species swap: exchanges the sigma and tau qubits at every site.
    G sigma^s G = tau^s, G^2 = identity."""
    # local 4x4 swap of the two qubits
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * b + a, 2 * a + b] = 1.0
    out = sp.csr_matrix(swap)
    blk = sp.csr_matrix(swap)
    for _ in range(n - 1):
        out = sp.kron(out, blk, format="csr")
    return out


def total_magnetization(n: int, species: int) -> sp.csr_matrix:
    out = sp.csr_matrix((phys_dim(n), phys_dim(n)), dtype=complex)
    for j in range(1, n + 1):
        out = out + kron_site_operator(n, j, species, "z")
    return out.tocsr()


def label(v: AuxVertex) -> str:
    """Text label of a vertex, e.g. AuxVertex(3, -1) -> '3/2-'."""
    s = "+" if v.sign > 0 else "-"
    if v.is_integer:
        return f"{v.twice_level // 2}{s}"
    return f"{v.twice_level}/2{s}"


def parse_label(text: str) -> AuxVertex:
    """Inverse of label, e.g. '3/2-' -> AuxVertex(3, -1)."""
    sign = +1 if text.endswith("+") else -1
    body = text[:-1]
    if "/" in body:
        num, den = body.split("/")
        if den != "2":
            raise ValueError(f"bad vertex label {text!r}")
        return AuxVertex(int(num), sign)
    return AuxVertex(2 * int(body), sign)


def gauge_matrix(space: AuxSpace, xi: complex) -> np.ndarray:
    """Diagonal similarity |k+-> -> xi^{+-1} |k+-> on integer vertices
    (identity on half-integer ones)."""
    if xi == 0:
        raise ValueError("gauge parameter must be nonzero")
    d = np.ones(space.dim, dtype=complex)
    for v in space.vertices:
        if v.is_integer:
            d[space.index[v]] = xi ** v.sign
    return np.diag(d)


def apply_gauge(fam: LaxFamily, xi: complex) -> LaxFamily:
    """Return the gauge-transformed family: every operator O -> D^-1 O D.

    All identity residuals must be unchanged; X^{-+}/X^{+-} pick up xi^{-+2}.
    """
    D = gauge_matrix(fam.space, xi)
    Di = gauge_matrix(fam.space, 1.0 / xi)

    def conj(M):
        return Di @ M @ D

    def conj_dict(d):
        return {k: conj(v) for k, v in d.items()}

    return LaxFamily(
        params=fam.params, space=fam.space, G=fam.G.copy(),
        S=conj_dict(fam.S), T=conj_dict(fam.T), X=conj(fam.X),
        X_blocks=fam.X_blocks, X_inv=conj(fam.X_inv), Y=conj(fam.Y),
        SacuteX=conj_dict(fam.SacuteX), XSgrave=conj_dict(fam.XSgrave),
        TacuteX=conj_dict(fam.TacuteX), XTgrave=conj_dict(fam.XTgrave),
        Sacute=conj_dict(fam.Sacute), Sgrave=conj_dict(fam.Sgrave),
        Tacute=conj_dict(fam.Tacute), Tgrave=conj_dict(fam.Tgrave),
        L=conj_dict(fam.L), Ltilde=conj_dict(fam.Ltilde),
    )


# one line per acceptance criterion, emitted after the test run so the
# verdicts stay visible even though pytest captures in-test stdout
ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
