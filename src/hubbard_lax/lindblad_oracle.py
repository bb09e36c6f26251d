"""Brute-force Lindblad dynamics for tiny chains.

Serves as the independent oracle for the transfer-operator steady state:
apply_lindbladian evaluates

    Ldot(rho) = -i[H, rho] + sum_k ( 2 L_k rho L_k^dag - {L_k^dag L_k, rho} )

with H and the jump operators held sparse (CSR), by sparse-times-dense
products for any n, while fixed_point_oracle materializes the full dense
superoperator (dimension 16^n, so n <= 3) and extracts its null space.

Superoperator convention: density matrices are vectorized row-major
(numpy reshape order), giving

    S = -i (H (x) 1 - 1 (x) H^T)
        + sum_k [ 2 L_k (x) conj(L_k) - (L_k^dag L_k) (x) 1 - 1 (x) (L_k^dag L_k)^T ]
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse

from .hubbard_model import HamiltonianSpec, build_hamiltonian, phys_dim, site_operator
from .ness_engine import DrivingConfig

NULL_SPACE_RTOL = 1e-10
ORACLE_MAX_SITES = 3


class UniquenessViolation(RuntimeError):
    pass


@dataclass
class LindbladSpec:
    cfg: DrivingConfig
    H: sparse.csr_matrix = field(default=None, repr=False)
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


def superoperator(spec: LindbladSpec) -> np.ndarray:
    """Dense 16^n x 16^n matrix of the generator (row-major vectorization)."""
    n = spec.cfg.n_sites
    if n > ORACLE_MAX_SITES:
        raise ValueError(
            f"dense superoperator refused for n={n} (16^n too large); "
            "use apply_lindbladian"
        )
    eye = np.eye(phys_dim(n))
    H = spec.H.toarray()
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in [J.toarray() for J in spec.jump_ops]:
        LdL = L.conj().T @ L
        S += 2.0 * np.kron(L, np.conj(L)) - np.kron(LdL, eye) - np.kron(eye, LdL.T)
    return S


@functools.lru_cache(maxsize=32)
def _oracle_cached(cfg: DrivingConfig):
    spec = make_spec(cfg)
    S = superoperator(spec)
    # n=3 means a 4096^2 SVD -- minutes of work, so cache per config.
    _, sv, Vh = scipy.linalg.svd(S, full_matrices=False, lapack_driver="gesdd")
    null_dim = int(np.sum(sv < NULL_SPACE_RTOL * sv[0]))
    if null_dim != 1:
        raise UniquenessViolation(
            f"steady-state null space has dimension {null_dim}, expected 1"
        )
    d = phys_dim(cfg.n_sites)
    rho = Vh[-1].conj().reshape(d, d)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    rho.setflags(write=False)
    return rho, null_dim


def fixed_point_oracle(cfg: DrivingConfig, return_null_dim: bool = False):
    """The steady state by SVD null-space extraction, Hermitized and
    normalized. Errors out if the null space is not one-dimensional.
    Results are cached per driving configuration."""
    rho, null_dim = _oracle_cached(cfg)
    if return_null_dim:
        return rho, null_dim
    return rho


def fixed_point_residual(cfg: DrivingConfig, rho: np.ndarray) -> float:
    """|| Ldot(rho) ||_F / || rho ||_F — the cheap large-n validation."""
    spec = make_spec(cfg)
    return float(
        np.linalg.norm(apply_lindbladian(spec, rho)) / np.linalg.norm(rho)
    )
