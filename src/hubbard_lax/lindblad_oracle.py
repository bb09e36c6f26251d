"""Brute-force Lindblad dynamics for tiny chains, on numpy alone: the
independent oracle for the transfer-operator steady state. The generator

    Ldot(rho) = -i[H, rho] + sum_k ( 2 L_k rho L_k^dag - {L_k^dag L_k, rho} )
              = K rho + rho K^dag + 2 sum_k L_k rho L_k^dag,  K = -iH - sum_k L_k^dag L_k,

keeps H as its local terms and the jumps as (4x4 operator, site) pairs;
apply_lindbladian folds K into one 16x16 term per bond and applies every term
as a batched matmul on a reshape of rho.

H conserves the charges (S, T) = (sum_j sz_j, sum_j tz_j) and each jump
shifts them by a fixed amount on bra and ket alike, so the generator keeps
|a><b| in its coherence sector (S, T)(a) - (S, T)(b): with row-major
vectorization, vec(A rho B) = (A (x) B^T) vec(rho), the superoperator

    S = K (x) 1 + 1 (x) conj(K) + 2 sum_k L_k (x) conj(L_k)

is block diagonal, in 49 blocks of at most 400 rows at n = 3. superoperator
asserts this selection rule before it builds the blocks densely. Only the
zero sector holds the steady state: the charge rotations commute with the
generator, so a unique steady state commutes with S and T; and the null
space of a Lindblad generator is spanned by density matrices, so when the
steady state is unique (Evans' irreducibility criterion, Commun. Math. Phys.
54, 293 (1977), gives it in general) every other block is invertible.
fixed_point_oracle certifies exactly that, block by block; the tests'
full-space SVD confirms it at n = 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hubbard_model import build_hamiltonian, phys_dim, site_operator
from .linalg import SITE_CHARGES, local4
from .ness_engine import DrivingConfig

NULL_SPACE_RTOL = 1e-10
ORACLE_MAX_SITES = 3


class UniquenessViolation(RuntimeError):
    pass


@dataclass
class LindbladSpec:
    cfg: DrivingConfig
    H: list = field(default_factory=list, repr=False)
    jumps: list = field(default_factory=list, repr=False)


def make_spec(cfg: DrivingConfig) -> LindbladSpec:
    """H as its local terms plus the four boundary jumps sqrt(G_L) s+_1,
    sqrt(G_L) t+_1, sqrt(G_R) s-_n, sqrt(G_R) t-_n as (4x4 operator, site)."""
    n = cfg.n_sites
    H = build_hamiltonian(n, cfg.u, cfg.mu_L, cfg.mu_R)
    gl, gr = np.sqrt(cfg.gamma_L), np.sqrt(cfg.gamma_R)
    jumps = [(gl * local4("+", "0"), 1), (gl * local4("0", "+"), 1),
             (gr * local4("-", "0"), n), (gr * local4("0", "-"), n)]
    return LindbladSpec(cfg=cfg, H=H, jumps=jumps)


def _bond_terms(spec: LindbladSpec):
    """K as one 16x16 term per bond j, j+1, as (j, term): a one-site piece
    joins the bond to its right, or on site n the bond to its left."""
    n = spec.cfg.n_sites
    K = dict.fromkeys(range(1, n), 0.0)
    for op, j in [(-1j * h, j) for h, j in spec.H] + [(-(L.conj().T @ L), j) for L, j in spec.jumps]:
        b = min(j, n - 1)
        K[b] = K[b] + site_operator(2, j - b + 1, op)
    return K.items()


def _on_sites(op: np.ndarray, j: int, x: np.ndarray, bra: bool = False) -> np.ndarray:
    """op x (or x op, with bra) for op on the sites j, j+1, ... of the ket (bra)
    index of the d x d matrix x: one batched matmul on a reshape of x."""
    d, m = len(x), len(op)
    left = 4 ** (j - 1) * (d if bra else 1)
    right = x.size // (left * m)
    if bra:
        if right == 1:
            # the last sites: one plain matmul, not d^2/m tiny batched ones
            return (x.reshape(left, m) @ op).reshape(d, d)
        op = op.T
    return np.matmul(op, x.reshape(left, m, right)).reshape(d, d)


def apply_lindbladian(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Ldot(rho) from the local terms, without any 4^n-dimensional operator."""
    rho = np.asarray(rho)
    d = phys_dim(spec.cfg.n_sites)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match dimension {d}")
    out = np.zeros((d, d), dtype=complex)
    for j, k in _bond_terms(spec):
        out += _on_sites(k, j, rho)
        out += _on_sites(k.conj().T, j, rho, bra=True)
    for L, j in spec.jumps:
        out += 2.0 * _on_sites(L.conj().T, j, _on_sites(L, j, rho), bra=True)
    return out


def superoperator(spec: LindbladSpec) -> list:
    """The generator S as dense blocks on its coherence sectors, the zero
    sector first: (kets, bras, block), where row i of the block is the entry
    (kets[i], bras[i]) of rho. Raises ValueError if H or a jump breaks the
    charge selection rule."""
    n = spec.cfg.n_sites
    if n > ORACLE_MAX_SITES:
        raise ValueError(f"the Lindblad oracle is limited to n <= {ORACLE_MAX_SITES}, got n={n}")
    # (up sigma spins) * (2n + 1) + (up tau spins) of each basis state, from
    # the site charges: a difference of codes fixes both charge differences
    code = functools.reduce(np.add.outer, [SITE_CHARGES @ [2 * n + 1, 1]] * n).ravel()
    H = sum(site_operator(n, j, h) for h, j in spec.H)
    Ls = [site_operator(n, j, L) for L, j in spec.jumps]
    for what, op in [("H", H)] + [(f"jump {k}", L) for k, L in enumerate(Ls)]:
        rows, cols = np.nonzero(op)
        if np.unique(code[rows] - code[cols]).size > 1:
            raise ValueError(f"{what} breaks the charge selection rule: it shifts "
                             "(S, T) by more than one amount")
    K = -1j * H - sum(L.conj().T @ L for L in Ls)
    terms = [(K, np.eye(len(K))), (np.eye(len(K)), K.conj())] + [(2.0 * L, L.conj()) for L in Ls]
    groups = {c: np.flatnonzero(code == c) for c in np.unique(code)}
    blocks = []
    for delta in sorted({a - b for a in groups for b in groups}, key=abs):
        pairs = [(groups[c], groups[c - delta]) for c in groups if c - delta in groups]
        kets = np.concatenate([np.repeat(a, len(b)) for a, b in pairs])
        bras = np.concatenate([np.tile(b, len(a)) for a, b in pairs])
        ket, bra = np.ix_(kets, kets), np.ix_(bras, bras)
        blocks.append((kets, bras, sum(A[ket] * B[bra] for A, B in terms)))
    return blocks


def fixed_point_oracle(cfg: DrivingConfig) -> np.ndarray:
    """The steady state, Hermitized, from the blocks of the generator.

    The rho_00 equation of the zero-sector block gives way to tr(rho) = 1 in
    the bordered matrix B; it follows from the others, as the trace is a left
    null vector of S. So Bx = 0 means Sx = 0 and tr x = 0, and B, block
    diagonal like S, is singular exactly when the null space of S holds more
    than the one state. A singular block, or the exact 1-norm condition
    number cond(B) = max_k |B_k| max_k |B_k^-1| above 1 / NULL_SPACE_RTOL,
    raises UniquenessViolation.
    """
    blocks = superoperator(make_spec(cfg))
    kets, bras, B0 = blocks[0]
    rho00 = np.flatnonzero((kets == 0) & (bras == 0))[0]
    B0[rho00] = kets == bras  # the trace functional
    norm = inv_norm = 0.0
    for _, _, B in blocks:
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as e:
            raise UniquenessViolation(f"steady state is not unique: {e}") from e
        norm = max(norm, np.linalg.norm(B, 1))
        inv_norm = max(inv_norm, np.linalg.norm(inv, 1))
        if B is B0:
            x = inv[:, rho00]
    cond = norm * inv_norm
    if not cond <= 1.0 / NULL_SPACE_RTOL:
        raise UniquenessViolation(f"steady state is not unique: condition number "
                                  f"{cond:.3g} of the bordered generator > 1/NULL_SPACE_RTOL")
    rho = np.zeros((phys_dim(cfg.n_sites),) * 2, dtype=complex)
    rho[kets, bras] = x
    return 0.5 * (rho + rho.conj().T)


def fixed_point_residual(cfg: DrivingConfig, rho: np.ndarray) -> float:
    """|| Ldot(rho) ||_F / || rho ||_F — the cheap large-n validation."""
    return float(np.linalg.norm(apply_lindbladian(make_spec(cfg), rho)) / np.linalg.norm(rho))
