"""Physical ladder space: site operators, the Hamiltonian, and the global
species swap.

Each site carries two qubits (sigma first, tau second), local basis ordered
(up-up, up-down, down-up, down-down); site j occupies tensor factor j, so the
full dimension is 4^n. site_operator and build_hamiltonian return scipy CSR
matrices, for the Lindblad oracle and the sparse cross-checks; scipy loads on
their first call, so the dense 4x4 and 16x16 pieces below cost no scipy import.

Hamiltonian (n >= 2):

    H = sum_{j<n} [ 2(s+_j s-_{j+1} + s-_j s+_{j+1}) + (tau analog) ]
        + u sum_j sz_j tz_j + (mu_L/2)(sz_1 + tz_1) + (mu_R/2)(sz_n + tz_n)

equivalently a sum of bulk bond terms h_{j,j+1} (which carry u/2 per adjacent
site) plus left/right single-site pieces h_L, h_R that restore the full u on
the boundary sites and add the chemical potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI, local4

SIGMA, TAU = 0, 1


@dataclass(frozen=True)
class HamiltonianSpec:
    n_sites: int
    u: float
    mu_L: float = 0.0
    mu_R: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("Hamiltonian needs n_sites >= 2")


def phys_dim(n: int) -> int:
    return 4**n


def site_operator(n: int, j: int, species: int, s: str) -> scipy.sparse.csr_matrix:
    """Operator s (one of +,-,0,z) acting on the sigma (species=0) or tau
    (species=1) qubit of site j (1-based), identity elsewhere."""
    import scipy.sparse as sp

    if not 1 <= j <= n:
        raise ValueError(f"site index {j} out of range 1..{n}")
    before = 2 * (j - 1) + species  # qubits left of the one acted on
    left = sp.identity(2**before, format="csr", dtype=complex)
    right = sp.identity(2 ** (2 * n - before - 1), format="csr", dtype=complex)
    return sp.kron(sp.kron(left, PAULI[s], format="csr"), right, format="csr")


def hop_bond(species: int) -> np.ndarray:
    """Free hopping 2(x+_1 x-_2 + x-_1 x+_2) on two adjacent sites (16x16)."""
    if species == SIGMA:
        a, b = local4("+", "0"), local4("-", "0")
    else:
        a, b = local4("0", "+"), local4("0", "-")
    return 2.0 * (np.kron(a, b) + np.kron(b, a))


def h_bond(u: float) -> np.ndarray:
    """Bulk bond term on two adjacent sites: both hoppings plus
    (u/2)(sz tz (x) 1 + 1 (x) sz tz)."""
    zz = local4("z", "z")
    eye4 = np.eye(4)
    return (
        hop_bond(SIGMA)
        + hop_bond(TAU)
        + 0.5 * u * (np.kron(zz, eye4) + np.kron(eye4, zz))
    )


def h_left(u: float, mu_L: float) -> np.ndarray:
    """Left boundary single-site piece: (u/2) sz tz + (mu_L/2)(sz + tz)."""
    return 0.5 * u * local4("z", "z") + 0.5 * mu_L * (local4("z", "0") + local4("0", "z"))


def h_right(u: float, mu_R: float) -> np.ndarray:
    return 0.5 * u * local4("z", "z") + 0.5 * mu_R * (local4("z", "0") + local4("0", "z"))


def build_hamiltonian(spec: HamiltonianSpec) -> scipy.sparse.csr_matrix:
    """Assemble H as a sparse CSR matrix."""
    import scipy.sparse as sp

    n, u = spec.n_sites, spec.u
    H = sp.csr_matrix((phys_dim(n), phys_dim(n)), dtype=complex)
    for j in range(1, n):
        for q in (SIGMA, TAU):
            H = H + 2.0 * (
                site_operator(n, j, q, "+") @ site_operator(n, j + 1, q, "-")
                + site_operator(n, j, q, "-") @ site_operator(n, j + 1, q, "+")
            )
    for j in range(1, n + 1):
        H = H + u * (site_operator(n, j, SIGMA, "z") @ site_operator(n, j, TAU, "z"))
    H = H + 0.5 * spec.mu_L * (
        site_operator(n, 1, SIGMA, "z") + site_operator(n, 1, TAU, "z")
    )
    H = H + 0.5 * spec.mu_R * (
        site_operator(n, n, SIGMA, "z") + site_operator(n, n, TAU, "z")
    )
    return H.tocsr()
