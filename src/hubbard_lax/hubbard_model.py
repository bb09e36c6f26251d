"""Physical ladder space, on numpy alone: H as its local terms
(build_hamiltonian), which the Lindblad generator applies one at a time at
any n, and their dense embedding in a chain (site_operator), which the
oracle's chains of n <= 3 and the two sites of a bond need.

Each site carries two qubits (sigma first, tau second), local basis ordered
(up-up, up-down, down-up, down-down); site j is tensor factor j, so the full
dimension is 4^n. Hamiltonian (n >= 2):

    H = sum_{j<n} [ 2(s+_j s-_{j+1} + s-_j s+_{j+1}) + (tau analog) ]
        + u sum_j sz_j tz_j + (mu_L/2)(sz_1 + tz_1) + (mu_R/2)(sz_n + tz_n),

a sum of bulk bond terms h_{j,j+1} (u/2 per adjacent site) plus single-site
pieces h_L, h_R (h_end at either end) that restore the full u on the boundary
sites and add the chemical potentials. Every term conserves both charges S = sum_j sz_j and
T = sum_j tz_j.
"""

from __future__ import annotations

import numpy as np

from .linalg import guard, local4

SIGMA, TAU = 0, 1


def phys_dim(n: int) -> int:
    return 4**n


def site_operator(n: int, j: int, op: np.ndarray) -> np.ndarray:
    """op acting on the sites j, j+1, ... (1-based; a 4^w x 4^w op spans w
    sites), identity elsewhere: a dense 4^n x 4^n matrix."""
    left = 4 ** (j - 1)
    right = phys_dim(n) // (left * len(op))
    if j < 1 or right < 1:
        raise ValueError(f"a {len(op)}x{len(op)} operator at site {j} does not fit {n} sites")
    guard(16 * phys_dim(n) ** 2, f"a dense {n}-site operator")
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def h_bond(u: float) -> np.ndarray:
    """Bulk bond term on two adjacent sites (16x16): the hopping
    2(x+ (x) x- + x- (x) x+) of both species x plus (u/2)(sz tz (x) 1 + 1 (x) sz tz)."""
    zz, eye4 = local4("z", "z"), np.eye(4)
    hop = [(local4("+", "0"), local4("-", "0")), (local4("0", "+"), local4("0", "-"))]
    return (2.0 * sum(np.kron(a, b) + np.kron(b, a) for a, b in hop)
            + 0.5 * u * (np.kron(zz, eye4) + np.kron(eye4, zz)))


def h_end(u: float, mu: float) -> np.ndarray:
    """Single-site piece at either end of the chain, with that end's
    potential mu: (u/2) sz tz + (mu/2)(sz + tz)."""
    return 0.5 * u * local4("z", "z") + 0.5 * mu * (local4("z", "0") + local4("0", "z"))


def build_hamiltonian(n: int, u: float, mu_L: float = 0.0, mu_R: float = 0.0) -> list:
    """H as its local terms, (operator, first site) pairs: h_bond on each bond
    j, j+1, then h_end on site 1 and on site n."""
    hb = h_bond(u)
    return [(hb, j) for j in range(1, n)] + [(h_end(u, mu_L), 1), (h_end(u, mu_R), n)]
