"""The single-qubit operator basis, the 4x4 ladder-site operators built from
it, and the dense contraction core shared by every module: lift turns
operator components into a site tensor A[p, q, a, b] (physical row and
column, then auxiliary row and column), phys_transfer_tensor does so for the
16 transfer components of a Lax family, and chain contracts a product of site
tensors between auxiliary boundary rows, one site at a time, behind one
peak-memory guard. SITE_CHARGES holds the charges of the site basis, whose
sum with the vertex charges the transfer entries conserve
(lax_builder.transfer_plan refuses one that does not); basis_charges
labels the (S, T) sector of each product basis state, and sectors groups
the states by it; ness_engine.omega_blocks contracts Omega on those sectors
alone."""

from __future__ import annotations

import functools
import types

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


# The (sigma, tau) charges of the site basis uu, ud, du, dd: its up-spin
# counts, which sigma^+ and tau^+ raise by one.
SITE_CHARGES = np.array([(1, 1), (1, 0), (0, 1), (0, 0)])

# The 16 ladder-site operators sigma^s tau^t, built once and read-only.
_LOCAL4 = {(s, t): np.kron(PAULI[s], PAULI[t]) for s in SPIN_LABELS for t in SPIN_LABELS}
for _op in _LOCAL4.values():
    _op.flags.writeable = False


def one_plan_cache(build):
    """Memoize build(*key) for one key at a time, as
    functools.lru_cache(maxsize=1) does, with cache_clear and a cache_info
    of the same fields, except that the plan held is dropped before the plan
    of another key is built: two are never held at once, which would raise
    the peak of a series read at several cutoffs."""
    held, count = {}, {"hits": 0, "misses": 0}

    @functools.wraps(build)
    def plan(*key):
        if key in held:
            count["hits"] += 1
        else:
            count["misses"] += 1
            held.clear()
            held[key] = build(*key)
        return held[key]

    plan.cache_info = lambda: types.SimpleNamespace(**count, maxsize=1, currsize=len(held))
    plan.cache_clear = lambda: held.clear() or count.update(hits=0, misses=0)
    return plan


def basis_charges(n_sites: int) -> np.ndarray:
    """The (S, T) sector of each of the 4^n product basis states of n sites,
    as the integer (up sigma spins) * (2n + 1) + (up tau spins): equal codes
    mean equal charges, and a difference of codes fixes both differences."""
    return functools.reduce(np.add.outer, [SITE_CHARGES @ [2 * n_sites + 1, 1]] * n_sites).ravel()


@functools.lru_cache
def sectors(n_sites: int) -> tuple:
    """The 4^n basis states of n sites ordered by (S, T) sector
    (basis_charges), read-only, and the bounds of each sector in that order."""
    code = basis_charges(n_sites)
    order = np.argsort(code, kind="stable")
    order.flags.writeable = False
    return order, [0, *np.flatnonzero(np.diff(code[order])) + 1, len(code)]


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


def _gib(nbytes: int) -> str:
    """nbytes in GiB to 3 significant digits. Past about 2^1054 bytes the
    float quotient overflows, so the top 64 bits are scaled in Decimal."""
    if nbytes < 1 << 1000:
        return f"{nbytes / 2**30:.3g}"
    from decimal import Decimal  # imported only here: it costs every process 0.4 MB
    k = nbytes.bit_length() - 64
    return f"{Decimal(nbytes >> k) * Decimal(2) ** (k - 30):.2e}"


def guard(nbytes: int, what: str) -> None:
    """Refuse a contraction whose peak allocation would exceed MAX_CHAIN_BYTES."""
    if nbytes > MAX_CHAIN_BYTES:
        raise MemoryError(
            f"{what} needs about {_gib(nbytes)} GiB, over the "
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
    until one transpose at the end. Its 2n + 2 axes stay within numpy's
    limit of 64 on every chain the guard admits with P Q > 1; a product of
    plain matrices (P = Q = 1) is left to the caller.
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
    # axes (b, p_1, q_1, ..., p_n, q_n, c) -> (b, c, p_1..p_n, q_1..q_n)
    order = [0, 2 * n + 1] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    out = cur.reshape((B,) + (P, Q) * n + (C,)).transpose(order)
    out = out.reshape(B, C, P ** n, Q ** n)
    return out[0, 0] if np.ndim(left) == np.ndim(right) == 1 else out
