"""The single-qubit operator basis, the 4x4 ladder-site operators built from
it, and the one contraction core shared by every module: lift turns operator
components into a site tensor A[p, q, a, b] (physical row and column, then
auxiliary row and column), phys_transfer_tensor does so for the 16 transfer
components of a Lax family, and chain contracts a product of site tensors
between auxiliary boundary rows. sector_chain contracts the same product one
charge sector at a time, and refuses site tensors that break the charge. Both
stand behind one peak-memory guard."""

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


# The (sigma, tau) charges of the site basis uu, ud, du, dd: its up-spin
# counts, which sigma^+ and tau^+ raise by one.
SITE_CHARGES = np.array([(1, 1), (1, 0), (0, 1), (0, 0)])

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


def sector_chain(tensors, charges, aux_charges, left: int, right: int) -> list:
    """<left| A_1 ... A_n |right>, as chain, one charge sector at a time, for
    site tensors that conserve a charge: A[p, q, a, b] may be nonzero only
    where charges[p] + aux_charges[a] == charges[q] + aux_charges[b], with
    integer charge vectors; the sectors would drop any other entry, so a
    nonzero one is refused with ValueError before anything is planned or
    allocated. The (P^n, Q^n) matrix is never formed.

    Returns a list of (rows, cols, block), one per row charge r of the n
    sites that the product reaches: block is the product on the basis
    states rows (indices into P^n, which hold charge r) and cols (which hold
    r + aux_charges[left] - aux_charges[right]); every other entry vanishes.
    With left == right, rows is cols.

    The partial product after j sites is held as blocks X[P, Q, b], one per
    row charge r and column charge c of those sites, over the auxiliary
    indices b of charge aux_charges[left] + r - c from which the rest of the
    chain still reaches `right`. Each site maps every block through the
    (p, q) slices of A between two such index sets, one matrix product per
    slice. The block sizes are planned first, so that the guard counts
    sector entries, not P^n Q^n.
    """
    n = len(tensors)
    # one integer per charge vector, so that charges add as integers
    weights = (1 << 20) ** np.arange(np.shape(charges)[1])
    pc = [int(x) for x in np.asarray(charges) @ weights]
    ac = np.asarray(aux_charges) @ weights
    total = np.add.outer(pc, ac)  # [p, a]: the charge of basis state p and vertex a
    off_charge = total[:, None, :, None] != total[None, :, None, :]
    for j, A in enumerate(tensors, 1):
        if (bad := np.argwhere(off_charge & (A != 0))).size:
            raise ValueError(f"site tensor {j} breaks charge conservation at "
                             f"A[{', '.join(map(str, bad[0]))}]")
    # live[j]: the auxiliary indices after site j + 1 that still reach `right`
    live = [np.arange(len(ac)) == right]
    for A in tensors[:0:-1]:
        live.insert(0, (A != 0).any(axis=(0, 1))[:, live[0]].any(axis=1))

    dims = {0: 1}                     # basis states per charge of the sites so far
    verts = {0: np.array([left])}     # auxiliary indices per charge difference r - c
    keys, plan, sizes = [(0, 0)], [], [1]
    for A, alive in zip(tensors, live):
        offset, new_dims = {}, {}     # where (r, p) starts in the rows of r + charge p
        for r, m in dims.items():
            for p, cp in enumerate(pc):
                offset[r + cp, p] = new_dims.get(r + cp, 0)
                new_dims[r + cp] = offset[r + cp, p] + m
        new_verts, moves, steps = {}, {}, {}
        for r, c in keys:
            if r - c not in moves:
                moves[r - c] = []
                for p, q in np.ndindex(A.shape[:2]):
                    d = r - c + pc[p] - pc[q]
                    if d not in new_verts:
                        new_verts[d] = np.flatnonzero((ac == ac[left] + d) & alive)
                    t = A[p, q][np.ix_(verts[r - c], new_verts[d])]
                    if t.any():
                        moves[r - c].append((p, q, t))
            for p, q, t in moves[r - c]:
                steps.setdefault((r + pc[p], c + pc[q]), []).append((r, c, p, q, t))
        plan.append((offset, new_dims, steps))
        dims, verts, keys = new_dims, new_verts, list(steps)
        sizes.append(sum(dims[r] * dims[c] * len(verts[r - c]) for r, c in keys))
    # the blocks before and after a site, one slice product in flight, and
    # (1 MiB) the plan itself
    guard(16 * max(a + 2 * b for a, b in zip(sizes, sizes[1:])) + (1 << 20),
          f"{n}-site sector contraction")

    idx = {0: np.zeros(1, dtype=np.int64)}
    data = {(0, 0): np.ones((1, 1, 1), dtype=complex)}
    for offset, dims, steps in plan:
        new_idx = {r: np.empty(m, dtype=np.int64) for r, m in dims.items()}
        for (r, p), o in offset.items():
            old = idx[r - pc[p]]
            new_idx[r][o:o + len(old)] = old * len(pc) + p
        new = {}
        for (r, c), contribs in steps.items():
            X = np.zeros((dims[r], dims[c], contribs[0][4].shape[1]), dtype=complex)
            for r0, c0, p, q, t in contribs:
                old = data[r0, c0]
                R, C, _ = old.shape
                o, oc = offset[r, p], offset[c, q]
                X[o:o + R, oc:oc + C] = (old.reshape(R * C, -1) @ t).reshape(R, C, -1)
            new[r, c] = X
        data, idx = new, new_idx
    return [(idx[r], idx[c], X[:, :, 0]) for (r, c), X in sorted(data.items())]
