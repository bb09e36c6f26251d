"""The single-qubit operator basis, the 4x4 ladder-site operators built from
it, and the one contraction core shared by every module: lift turns operator
components into a site tensor A[p, q, a, b] (physical row and column, then
auxiliary row and column), phys_transfer_tensor does so for the 16 transfer
components of a Lax family, and chain contracts a product of site tensors
between auxiliary boundary rows, behind one peak-memory guard."""

from __future__ import annotations

import numpy as np

# Single-qubit operator basis used throughout: s in {"+", "-", "0", "z"}.
PAULI = {
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "0": np.eye(2, dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

SPIN_LABELS = ("+", "-", "0", "z")

# Largest peak allocation, in bytes, that a contraction may make; a larger one
# is refused with MemoryError before anything is allocated.
MAX_CHAIN_BYTES = 1 << 30


# The 16 ladder-site operators sigma^s tau^t, built once and read-only.
_LOCAL4 = {(s, t): np.kron(PAULI[s], PAULI[t]) for s in SPIN_LABELS for t in SPIN_LABELS}
for _op in _LOCAL4.values():
    _op.flags.writeable = False


def local4(s: str, t: str) -> np.ndarray:
    """Dense 4x4 operator sigma^s tau^t on one ladder site (sigma qubit
    first): a shared read-only array, so copy it before writing."""
    return _LOCAL4[s, t]


def lift(phys: dict, comps: dict) -> np.ndarray:
    """Site tensor A[p, q, a, b] = sum_k phys[k][p, q] * comps[k][a, b] over
    the keys k of comps: each auxiliary component times its physical operator,
    e.g. lift(PAULI, S) for sum_s sigma^s S^s."""
    return np.tensordot(np.array([phys[k] for k in comps]),
                        np.array(list(comps.values())), axes=(0, 0))


def phys_transfer_tensor(components: dict) -> np.ndarray:
    """A[p, q, a, b] = sum_st (sigma^s tau^t)[p, q] * C^{st}[a, b] for the
    components C of a family (fam.L, or fam.Ltilde)."""
    return lift({st: local4(*st) for st in components}, components)


def guard(nbytes: int, what: str) -> None:
    """Refuse a contraction whose peak allocation would exceed MAX_CHAIN_BYTES."""
    if nbytes > MAX_CHAIN_BYTES:
        raise MemoryError(
            f"{what} needs about {nbytes / 2**30:.1f} GiB, over the "
            f"{MAX_CHAIN_BYTES / 2**30:g} GiB limit"
        )


def chain(tensors, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left| A_1 ... A_n |right> for site tensors A[p, q, a, b], as a
    (P^n, Q^n) matrix over the physical row (p_1..p_n) and column (q_1..q_n)
    indices.

    `left` and `right` are each a boundary vector or a (B, D) block of
    boundary rows; with blocks the result is (B_left, B_right, P^n, Q^n), one
    matrix per pair of boundary rows.

    `right` is folded into the last tensor before that site is contracted,
    so the chain ends on the boundary rows and never holds a copy of the
    output per auxiliary index. Each site is one tensordot over the
    auxiliary index; the physical indices stay interleaved (p_1 q_1 ... p_j
    q_j) in the rows of the intermediate, which makes every reshape free,
    until one transpose at the end.
    """
    n = len(tensors)
    P, Q = tensors[0].shape[:2]
    lrows, rrows = np.atleast_2d(left), np.atleast_2d(right)
    B, C = len(lrows), len(rrows)
    # Element counts of the intermediates: the boundary rows, the
    # B (PQ)^j x D_j partial products, and the result before and after the
    # final transpose.
    sizes = [lrows.size]
    sizes += [B * (P * Q) ** j * A.shape[3] for j, A in enumerate(tensors[:-1], 1)]
    sizes.append(2 * B * C * (P * Q) ** n)
    guard(16 * max(a + b for a, b in zip(sizes, sizes[1:])), f"{n}-site contraction")
    cur = lrows
    for A in tensors[:-1]:
        cur = np.tensordot(cur, A, axes=(1, 2)).reshape(-1, A.shape[3])
    cur = np.tensordot(cur, np.tensordot(tensors[-1], rrows, axes=(3, 1)), axes=(1, 2))
    if P * Q == 1:
        # nothing to reorder, and the 2n axes below would pass numpy's limit
        # of 64 dimensions on long pair-transfer chains
        out = cur.reshape(B, C, 1, 1)
    else:
        # axes (b, p_1, q_1, ..., p_n, q_n, c) -> (b, c, p_1..p_n, q_1..q_n)
        order = [0, 2 * n + 1] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
        out = cur.reshape((B,) + (P, Q) * n + (C,)).transpose(order)
        out = out.reshape(B, C, P ** n, Q ** n)
    return out[0, 0] if np.ndim(left) == np.ndim(right) == 1 else out
