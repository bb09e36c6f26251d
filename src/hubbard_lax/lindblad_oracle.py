"""Brute-force Lindblad dynamics for tiny chains.

Serves as the independent oracle for the transfer-operator steady state:
apply_lindbladian evaluates

    Ldot(rho) = -i[H, rho] + sum_k ( 2 L_k rho L_k^dag - {L_k^dag L_k, rho} )

with H and the jump operators held sparse (CSR), by sparse-times-dense
products for any n. fixed_point_oracle solves S vec(rho) = 0 by sparse LU
(n <= 3), where superoperator assembles S as a sparse 16^n x 16^n matrix.
scipy loads on first use, inside the functions that build these sparse
matrices, so importing this module costs none of it.

Superoperator convention: density matrices are vectorized row-major
(numpy reshape order), giving

    S = -i (H (x) 1 - 1 (x) H^T)
        + sum_k [ 2 L_k (x) conj(L_k) - (L_k^dag L_k) (x) 1 - 1 (x) (L_k^dag L_k)^T ]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hubbard_model import HamiltonianSpec, build_hamiltonian, phys_dim, site_operator
from .ness_engine import DrivingConfig

NULL_SPACE_RTOL = 1e-10
ORACLE_MAX_SITES = 3


class UniquenessViolation(RuntimeError):
    pass


@dataclass
class LindbladSpec:
    cfg: DrivingConfig
    H: scipy.sparse.csr_matrix = field(default=None, repr=False)
    jump_ops: list = field(default_factory=list, repr=False)


def make_spec(cfg: DrivingConfig) -> LindbladSpec:
    """Hamiltonian plus the four boundary jump operators
    sqrt(G_L) s+_1, sqrt(G_L) t+_1, sqrt(G_R) s-_n, sqrt(G_R) t-_n."""
    n = cfg.n_sites
    H = build_hamiltonian(
        HamiltonianSpec(n_sites=n, u=cfg.u, mu_L=cfg.mu_L, mu_R=cfg.mu_R))
    gl, gr = np.sqrt(cfg.gamma_L), np.sqrt(cfg.gamma_R)
    jumps = [
        gl * site_operator(n, 1, 0, "+"),
        gl * site_operator(n, 1, 1, "+"),
        gr * site_operator(n, n, 0, "-"),
        gr * site_operator(n, n, 1, "-"),
    ]
    return LindbladSpec(cfg=cfg, H=H, jump_ops=jumps)


def apply_lindbladian(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Ldot(rho) without ever forming the superoperator."""
    rho = np.asarray(rho)
    d = spec.H.shape[0]
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match dimension {d}")
    out = -1j * (spec.H @ rho - rho @ spec.H)
    for L in spec.jump_ops:
        Ld = L.conj().T
        LdL = Ld @ L
        out += 2.0 * L @ rho @ Ld - LdL @ rho - rho @ LdL
    return out


def _refuse_large(n: int):
    if n > ORACLE_MAX_SITES:
        raise ValueError(f"the Lindblad oracle is limited to n <= {ORACLE_MAX_SITES}, got n={n}")


def superoperator(spec: LindbladSpec) -> scipy.sparse.csr_matrix:
    """Sparse 16^n x 16^n matrix of the generator (row-major vectorization)."""
    _refuse_large(spec.cfg.n_sites)
    from scipy import sparse

    eye = sparse.identity(spec.H.shape[0], format="csr")
    S = -1j * (sparse.kron(spec.H, eye) - sparse.kron(eye, spec.H.T))
    for L in spec.jump_ops:
        LdL = L.conj().T @ L
        S = S + 2.0 * sparse.kron(L, L.conj()) - sparse.kron(LdL, eye) - sparse.kron(eye, LdL.T)
    return S.tocsr()


def fixed_point_oracle(cfg: DrivingConfig) -> np.ndarray:
    """The steady state, Hermitized, from one sparse LU solve.

    The rho_00 equation of S vec(rho) = 0 gives way to tr(rho) = 1 in the
    bordered matrix B; it follows from the others, as the trace is a left
    null vector of S. So Bx = 0 means Sx = 0 and tr x = 0, and B is singular
    exactly when the null space of S holds more than the one state: a
    singular factor, or a 1-norm condition estimate of B above
    1 / NULL_SPACE_RTOL, raises UniquenessViolation.
    """
    _refuse_large(cfg.n_sites)
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, norm, onenormest, splu

    d = phys_dim(cfg.n_sites)
    S = superoperator(make_spec(cfg))
    # row 0 becomes the trace functional, vec(identity)
    B = sparse.vstack([np.eye(d).reshape(1, -1), S[1:]], format="csc")
    try:
        lu = splu(B)
    except RuntimeError as e:
        raise UniquenessViolation(f"steady state is not unique: {e}") from e
    inv = LinearOperator(B.shape, lu.solve, rmatvec=lambda x: lu.solve(x, "H"), dtype=complex)
    cond = onenormest(inv) * norm(B, 1)
    if not cond <= 1.0 / NULL_SPACE_RTOL:
        raise UniquenessViolation(f"steady state is not unique: condition estimate "
                                  f"{cond:.3g} of the bordered generator > 1/NULL_SPACE_RTOL")
    rho = lu.solve(np.eye(1, d * d, dtype=complex)[0]).reshape(d, d)
    return 0.5 * (rho + rho.conj().T)


def fixed_point_residual(cfg: DrivingConfig, rho: np.ndarray) -> float:
    """|| Ldot(rho) ||_F / || rho ||_F — the cheap large-n validation."""
    spec = make_spec(cfg)
    return float(
        np.linalg.norm(apply_lindbladian(spec, rho)) / np.linalg.norm(rho)
    )
