"""Construction of the two-parameter operator family on the auxiliary graph.

At fixed (lambda, omega, u) this module builds the four hopping components
S^s (s in {+,-,0,z}), their reflections T^t, the interaction operator X with
its 2x2 integer-level blocks X_k, the spectral operator Y, the eight "hatted"
products (acute-S X, X grave-S and their T counterparts), and finally the
transfer components

    L^{st}      = S^s T^t X
    Ltilde^{st} = 1/2 (S^s T'^t + T^t S'^s + `S^s T^t + `T^t S^s
                   - Y S^s T^t - S^s T^t Y) X

where primes/backticks denote the acute/grave operators recovered through
X^{-1}. S and X are built as their rows, one entry per row of S^s at most
and two per row of X, so L^{st} has at most two per row. Where those
entries lie depends on the cutoff alone, and only their values on
(lambda, omega, u): transfer_plan lays out, once per cutoff, the entries of
S, X, L and of the transfer tensor, and build_L and transfer_entries form
only their values at a point, in O(dim) time and memory, for the sector
contraction and the environment engine. assemble_family lays every table
out as a dense numpy array for the dense routes, L from build_L.

Conventions that matter and are pinned by the residual checks in
algebra_verifier (any sign change below makes those residuals O(1)):

- each plaquette {k+, k+1/2+, k+1/2-, k+1-} splits into two disjoint
  raising pairs: S+ hops k+ -> k+1/2+ and k+1/2- -> k+1-;
- the acute/grave off-diagonals carry the opposite-corner X_k elements:
  acute-S+ X and X grave-S+ carry X^{-+}_k, the minus partners carry X^{+-}_k;
- the bra of acute-S- X is the minus half-integer vertex.

assemble_family builds each table once. The L components conserve the total
charge, physical plus vertex (AuxSpace.charges), and so move the level by one
at most; transfer_plan refuses, once per cutoff, an entry that does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .aux_space import AuxSpace, AuxVertex, build_aux_space, spin_flip_aux, spin_flip_index
from .linalg import SITE_CHARGES, SPIN_LABELS, local4, one_plan_cache

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class LaxParams:
    lam: complex      # spectral parameter
    omega: complex    # representation parameter
    u: float          # dimensionless interaction

    def require_invertible(self):
        if self.omega == 0:
            raise RepresentationSingular(
                "omega = 0 makes X singular; inverse unavailable"
            )


class RepresentationSingular(ValueError):
    pass


# ---------------------------------------------------------------------------
# X_k blocks

def xk_entries(k: int, lam, om, u):
    """Rows ((X^{--}_k, X^{-+}_k), (X^{+-}_k, X^{++}_k)) of the block at
    integer level k, in whatever number type lam, om and u share: xk_matrix
    evaluates it in floats, algebra_verifier.check_xk_structure exactly."""
    return (
        (-(om + k * u) * om, 1 - (om + k * u) * om * (1 - lam * lam)),
        (-k * u * om, 1 - k * u * om * (1 - lam * lam)),
    )


def xk_matrix(k: int, params: LaxParams) -> np.ndarray:
    """2x2 block of X at integer level k, row/column order (-, +).

    X^{--}_k = -(omega + k u) omega
    X^{-+}_k = 1 - (omega + k u) omega (1 - lambda^2)
    X^{+-}_k = -k u omega
    X^{++}_k = 1 - k u omega (1 - lambda^2)

    det = -omega^2 identically; both diagonals obey first-order recurrences
    in k with steps -u*omega and -u*omega*(1-lambda^2).
    """
    return np.array(xk_entries(k, params.lam, params.omega, params.u), dtype=complex)


# ---------------------------------------------------------------------------
# helpers over the vertex list

def _plaquette(k: int):
    """Vertices (k+, k+1/2+, k+1/2-, k+1-) as AuxVertex tuples."""
    return (
        AuxVertex(2 * k, +1),
        AuxVertex(2 * k + 1, +1),
        AuxVertex(2 * k + 1, -1),
        AuxVertex(2 * k + 2, -1),
    )


def _zeros(space: AuxSpace) -> np.ndarray:
    return np.zeros((space.dim, space.dim), dtype=complex)


def _put(space: AuxSpace, mat: np.ndarray, bra: AuxVertex, ket: AuxVertex, val):
    """Add val * |bra><ket| when both vertices are inside the cutoff."""
    i = space.index.get(bra)
    j = space.index.get(ket)
    if i is not None and j is not None:
        mat[i, j] += val


# ---------------------------------------------------------------------------
# component tables

def _dense(space: AuxSpace, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The matrix whose row a holds vals[a] (or each vals[a, i]) at column
    cols[a] (cols[a, i]); the columns of a row are distinct."""
    mat = _zeros(space)
    np.put_along_axis(mat, cols.reshape(space.dim, -1), vals.reshape(space.dim, -1), axis=1)
    return mat


# (S0, Sz) by (integer level?, sign, parity of the integer part m of the level);
# LAM marks the entries that hold lambda
LAM = None
_DIAG = {(True, +1, 0): (1.0, 0.0), (True, +1, 1): (0.0, 1.0),
         (True, -1, 0): (LAM, 1.0), (True, -1, 1): (1.0, LAM),
         (False, +1, 0): (1.0, LAM), (False, +1, 1): (LAM, 1.0),
         (False, -1, 0): (1.0, 0.0), (False, -1, 1): (0.0, 1.0)}


def _read_only(x):
    """Make every array in x, an array or a tuple or dict of them, read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    for y in x.values() if isinstance(x, dict) else x if isinstance(x, tuple) else ():
        _read_only(y)


class TransferPlan:
    """What of the transfer components L^{st} = S^s T^t X and of their
    transfer tensor the cutoff fixes alone (transfer_plan), read-only:

    - s_cols[i, a]: the column of row a of S^s (s = SPIN_LABELS[i]); its
      value is lambda where s_lam, else s_const (0 where the row is empty):
      S+ and S- are two disjoint fermionic raising/lowering pairs per plaquette,
      sqrt(2) with the staggered (-1)^k sign on S-, and S0 and Sz diagonal,
      with entries in {0, 1, lambda} depending on level parity and sign;
    - x_cols: the columns of the rows of X (x_rows); half, half_sign: the
      half-integer rows and their sign (-1)^m; block_rows, block_sign: the
      rows k-, k+ of each X_k, k = 1..K, and (-1)^k;
    - parts[(s, t)] = (rows, cols, slice): the entries of L^{st} and where
      their values lie in the one array that build_L forms,
      S[ia] * S[ib] * X[ix] over the flattened tables, (ia, ib, ix) = gather;
    - entries = (p, q, a, b): the entries of the transfer tensor, each once,
      in lexicographic order; the part n of them is coef[n] values[src[n]],
      summed into entry slot[n] in this order (transfer_entries);
    - space and charges: the cutoff-K space and its AuxSpace.charges.

    L keeps every entry that is nonzero at some point: it drops only the
    empty rows of S and the padding column of x_rows, so an entry that
    vanishes at one point (lambda = 0, u = 0) is held as an explicit zero.

    Its arrays are read-only, since one plan serves every caller. (A plain
    class: a dataclass of these fields would add 2 ms to every import.)"""

    def __init__(self, **fields):
        vars(self).update(fields)
        _read_only(tuple(fields.values()))


@one_plan_cache
def transfer_plan(K: int) -> TransferPlan:
    """The TransferPlan of the cutoff-K space, built once per cutoff; a
    transfer entry that breaks charge conservation is refused by name."""
    space = build_aux_space(K)
    dim, idx, g = space.dim, np.arange(space.dim), spin_flip_index(space)
    s_cols, s_const = np.tile(idx, (4, 1)), np.zeros((4, dim), dtype=complex)
    s_lam = np.zeros((4, dim), dtype=bool)
    for k in range(K):  # plaquette K lies past the cutoff
        kp, khp, khm, k1m = (space.index[v] for v in _plaquette(k))
        s_cols[0, [kp, khm]], s_const[0, [kp, khm]] = [khp, k1m], SQRT2
        s_cols[1, [khp, k1m]], s_const[1, [khp, k1m]] = [kp, khm], SQRT2 * (-1) ** k
    for i, v in enumerate(space.vertices):
        for row, entry in enumerate(_DIAG[v.is_integer, v.sign, v.twice_level // 2 % 2], 2):
            s_lam[row, i], s_const[row, i] = entry is LAM, entry or 0.0
    s_live = s_lam | (s_const != 0)
    # X: one entry per row at column 0, two on the rows of the integer blocks
    x_cols, x_live = np.stack([idx, (idx + 1) % dim], axis=1), np.zeros((dim, 2), dtype=bool)
    x_live[:, 0] = True
    block_rows = np.array([space.index[AuxVertex(2 * k, sign)]
                           for k in range(1, K + 1) for sign in (-1, +1)], dtype=np.int64)
    pairs = block_rows.reshape(-1, 2)
    x_cols[pairs[:, 0]] = x_cols[pairs[:, 1]] = pairs
    x_live[block_rows] = True
    half = [(i, (-1) ** (v.twice_level // 2)) for i, v in enumerate(space.vertices)
            if not v.is_integer]
    # L^{st}: row a of S^s T^t holds S^s[a] T^t at column g[ct[g[cs[a]]]]
    parts, gather, start = {}, [], 0
    for (i, s), (j, t) in itertools.product(enumerate(SPIN_LABELS), repeat=2):
        a = np.flatnonzero(s_live[i] & s_live[j, g[s_cols[i]]])
        ga = g[s_cols[i, a]]
        x, slot = np.nonzero(x_live[g[s_cols[j, ga]]])
        xr = g[s_cols[j, ga]][x]  # the row of X
        rows, cols = a[x], x_cols[xr, slot]
        parts[s, t] = rows, cols, slice(start, start + len(rows))
        gather.append((i * dim + a[x], j * dim + ga[x], 2 * xr + slot))
        start += len(rows)
    # the transfer tensor: every component times each nonzero of its sigma^s tau^t
    key, src, coef = [], [], []
    for st, (rows, cols, sl) in parts.items():
        for p, q in zip(*np.nonzero(local4(*st))):
            key.append(((p * 4 + q) * dim + rows) * dim + cols)
            src.append(np.arange(sl.start, sl.stop, dtype=np.int32))
            coef.append(np.full(len(rows), local4(*st)[p, q].real))  # +-1
    key, slot = np.unique(np.concatenate(key), return_inverse=True)
    half, half_sign = np.array(half).T
    plan = TransferPlan(
        space=space, charges=space.charges(), s_cols=s_cols, s_const=s_const, s_lam=s_lam,
        x_cols=x_cols, half=half, half_sign=half_sign, block_rows=block_rows,
        block_sign=(-1) ** np.arange(1, K + 1), parts=parts,
        gather=tuple(np.concatenate(x).astype(np.int32) for x in zip(*gather)),
        src=np.concatenate(src), coef=np.concatenate(coef), slot=slot,
        entries=np.unravel_index(key, (4, 4, dim, dim)))
    p, q, a, b = plan.entries
    bad = (SITE_CHARGES[p] + plan.charges[a] != SITE_CHARGES[q] + plan.charges[b]).any(axis=1)
    if bad.any():
        e = np.argmax(bad)
        raise ValueError(f"the transfer entry A[{p[e]}, {q[e]}, {a[e]}, {b[e]}] "
                         "breaks charge conservation")
    return plan


def _s_values(plan: TransferPlan, lam) -> np.ndarray:
    """The values of the four S tables at spectral parameter lam, (4, dim)."""
    return np.where(plan.s_lam, lam, plan.s_const)


def x_rows(space: AuxSpace, params: LaxParams, blocks):
    """X = |0+><0+| + sum_k (-1)^k X_k on span{k-, k+} (k >= 1)
    + omega sum over half-integer vertices of (-1)^m on both signs, where
    m + 1/2 is the half-integer level, as its rows (cols, vals), each
    (dim, 2): row a holds vals[a, i] at column cols[a, i]; a row with one
    entry holds a zero at the next column. blocks[k] is X_k, k = 0..K."""
    plan = transfer_plan(space.cutoff_K)
    vals = np.zeros((space.dim, 2), dtype=complex)
    vals[space.index[AuxVertex(0, +1)], 0] = 1.0
    vals[plan.half, 0] = params.omega * plan.half_sign
    vals[plan.block_rows] = (plan.block_sign[:, None, None] * np.asarray(blocks[1:])).reshape(-1, 2)
    return plan.x_cols, vals


def build_X(space: AuxSpace, params: LaxParams):
    """X of x_rows, dense. Returns (X, X^{-1}, blocks X_k for k = 0..K); the
    inverse is blockwise, one 2x2 inversion per integer block using
    det X_k = -omega^2."""
    params.require_invertible()
    om = params.omega
    blocks = [xk_matrix(k, params) for k in range(space.cutoff_K + 1)]
    cols, vals = x_rows(space, params, blocks)
    inv = vals.copy()  # the root row is its own inverse
    plan = transfer_plan(space.cutoff_K)
    inv[plan.half, 0] = [1.0 / complex(d) for d in vals[plan.half, 0]]
    for i, b, sign in zip(plan.block_rows.reshape(-1, 2), blocks[1:], plan.block_sign):
        adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
        inv[i] = adj / (-(om * om)) * sign  # inverse of (-1)^k X_k
    return _dense(space, cols, vals), _dense(space, cols, inv), blocks


def build_Y(space: AuxSpace, params: LaxParams) -> np.ndarray:
    """Y = -2 lambda u * (projector onto integer-level vertices)."""
    Y, rows = _zeros(space), [0, *transfer_plan(space.cutoff_K).block_rows]  # 0+, k-, k+
    Y[rows, rows] = -2.0 * params.lam * params.u
    return Y


def build_hatted(space: AuxSpace, params: LaxParams, blocks: list) -> tuple[dict, dict]:
    """The products acute-S^s X and X grave-S^s for s in {+,-,0,z}, from the
    blocks X_k of build_X (rows and columns (-, +)).

    Off-diagonal (s = +,-) terms, k >= 1:

      acute-S+ X = -2 sqrt2 sum (-1)^k X^{-+}_k |k-><k+1/2+|
      acute-S- X = -2 sqrt2 sum        X^{+-}_k |k+><k-1/2-|
      X grave-S+ = +2 sqrt2 sum (-1)^k X^{-+}_k |k-1/2-><k+|
      X grave-S- = -2 sqrt2 sum        X^{+-}_k |k+1/2+><k-|

    Diagonal (s = 0,z) operators are shared: acute-S^0 X == X grave-S^0 and
    likewise for z. Entries depend on level parity, sign, and the X_k
    diagonals; lambda multiplies the even/odd partner slots.
    """
    lam, om = params.lam, params.omega
    SacX = {s: _zeros(space) for s in SPIN_LABELS}
    XSgr = {s: _zeros(space) for s in SPIN_LABELS}

    for k in range(1, space.cutoff_K + 1):
        km = AuxVertex(2 * k, -1)
        kp = AuxVertex(2 * k, +1)
        khp = AuxVertex(2 * k + 1, +1)   # k + 1/2, +
        klm = AuxVertex(2 * k - 1, -1)   # k - 1/2, -
        sgn = (-1) ** k
        xmp, xpm = blocks[k][0, 1], blocks[k][1, 0]
        _put(space, SacX["+"], km, khp, -2.0 * SQRT2 * sgn * xmp)
        _put(space, SacX["-"], kp, klm, -2.0 * SQRT2 * xpm)
        _put(space, XSgr["+"], klm, kp, +2.0 * SQRT2 * sgn * xmp)
        _put(space, XSgr["-"], khp, km, -2.0 * SQRT2 * xpm)

    for v in space.vertices:
        i = space.index[v]
        if v.is_integer:
            m = v.twice_level // 2
            if v.sign > 0:
                d0 = 2.0 * om if m % 2 == 1 else -2.0 * lam * om
                dz = -2.0 * om if m % 2 == 0 else 2.0 * lam * om
            else:
                d0 = -2.0 * om if m % 2 == 0 else 0.0
                dz = 2.0 * om if m % 2 == 1 else 0.0
        else:
            m = (v.twice_level - 1) // 2
            xpp, xmm = blocks[m][1, 1], blocks[m + 1][0, 0]
            if v.sign > 0:
                d0 = -2.0 * xpp if m % 2 == 1 else 0.0
                dz = 2.0 * xpp if m % 2 == 0 else 0.0
            else:
                d0 = -2.0 * xmm if m % 2 == 1 else 2.0 * lam * xmm
                dz = 2.0 * xmm if m % 2 == 0 else -2.0 * lam * xmm
        SacX["0"][i, i] = XSgr["0"][i, i] = d0
        SacX["z"][i, i] = XSgr["z"][i, i] = dz
    return SacX, XSgr


# ---------------------------------------------------------------------------
# the assembled family

@dataclass
class LaxFamily:
    params: LaxParams
    space: AuxSpace
    G: np.ndarray
    S: dict
    T: dict
    X: np.ndarray
    X_blocks: list
    X_inv: np.ndarray
    Y: np.ndarray
    SacuteX: dict
    XSgrave: dict
    TacuteX: dict
    XTgrave: dict
    # bare acute/grave operators (through X_inv)
    Sacute: dict
    Sgrave: dict
    Tacute: dict
    Tgrave: dict
    L: dict
    Ltilde: dict

    @property
    def dim(self) -> int:
        return self.space.dim


def build_L(space: AuxSpace, params: LaxParams) -> dict:
    """The transfer components L^{st} = S^s T^t X as their entries,
    {(s, t): (rows, cols, vals)}: a row of S^s or of T^t = G S^t G holds one
    entry at most and a row of X two, so a row of L^{st} two. The rows and
    columns are those of transfer_plan, shared and read-only; only the
    values are formed here, in O(dim) time and memory, with no loop over
    the vertices. An entry that vanishes at this point stays, as a zero;
    non-finite entries are kept, for the caller to refuse."""
    plan, (lam, om, u) = transfer_plan(space.cutoff_K), (params.lam, params.omega, params.u)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = np.array([xk_entries(k, lam, om, u) for k in range(space.cutoff_K + 1)],
                          dtype=complex)
        sv, xv = _s_values(plan, lam).ravel(), x_rows(space, params, blocks)[1].ravel()
        ia, ib, ix = plan.gather
        vals = sv[ia] * sv[ib] * xv[ix]
    return {st: (rows, cols, vals[sl]) for st, (rows, cols, sl) in plan.parts.items()}


def transfer_entries(band: dict, dim: int):
    """The entries of linalg.phys_transfer_tensor(L) from those of the
    components, band = build_L(space, params) on a dim-vertex space, with no
    dense tensor: arrays (p, q, a, b, val), the first four the plan's, each
    (p, q, a, b) once, in lexicographic order. The components that meet at
    an entry are summed in the order of band, as phys_transfer_tensor sums
    them; an entry that vanishes at this point stays, as a zero."""
    plan = transfer_plan((dim - 1) // 4)
    vals = np.concatenate([v for *_, v in band.values()])
    assert len(vals) == len(plan.gather[0]), "band is not the band of build_L at this cutoff"
    with np.errstate(over="ignore", invalid="ignore"):
        part, m = plan.coef * vals[plan.src], len(plan.entries[0])
        val = np.bincount(plan.slot, part.real, m) + 1j * np.bincount(plan.slot, part.imag, m)
    return (*plan.entries, val)


def assemble_family(cutoff_K: int, params: LaxParams) -> LaxFamily:
    """Build every operator of the family at the given cutoff, L from
    build_L. Parameters whose tables overflow (u = 1e200 does) are refused
    with ValueError before any contraction reads them."""
    plan = transfer_plan(int(cutoff_K))
    space = plan.space
    # an overflow shows as inf or nan in a table, refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        X, X_inv, blocks = build_X(space, params)
        S = {s: _dense(space, cols, vals) for s, cols, vals
             in zip(SPIN_LABELS, plan.s_cols, _s_values(plan, params.lam))}
        Y = build_Y(space, params)
        SacX, XSgr = build_hatted(space, params, blocks)
        G = spin_flip_aux(space)
        # the reflected tables T^t = G S^t G, acute-T X and X grave-T
        T, TacX, XTgr = ({t: G @ D[t] @ G for t in SPIN_LABELS} for D in (S, SacX, XSgr))
        Sac, Tac = ({s: D[s] @ X_inv for s in SPIN_LABELS} for D in (SacX, TacX))
        Sgr, Tgr = ({s: X_inv @ D[s] for s in SPIN_LABELS} for D in (XSgr, XTgr))
        L, Ltilde = {}, {}
        for (s, t), (r, c, v) in build_L(space, params).items():
            ST = S[s] @ T[t]
            L[s, t] = _zeros(space)
            L[s, t][r, c] = v
            Ltilde[s, t] = 0.5 * (
                S[s] @ Tac[t] + T[t] @ Sac[s] + Sgr[s] @ T[t] + Tgr[t] @ S[s] - Y @ ST - ST @ Y
            ) @ X
    fam = LaxFamily(
        params=params, space=space, G=G, S=S, T=T, X=X, X_blocks=blocks,
        X_inv=X_inv, Y=Y, SacuteX=SacX, XSgrave=XSgr, TacuteX=TacX,
        XTgrave=XTgr, Sacute=Sac, Sgrave=Sgr, Tacute=Tac, Tgrave=Tgr, L=L, Ltilde=Ltilde,
    )
    for name, value in vars(fam).items():
        if isinstance(value, dict):
            value = list(value.values())
        for table in value if isinstance(value, list) else [value]:
            if isinstance(table, np.ndarray) and not np.isfinite(table).all():
                raise ValueError(f"the Lax family at {params} is not finite: {name} overflows")
    return fam
