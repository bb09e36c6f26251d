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
and two per row of X, so L^{st} has at most two per row: build_L forms the
transfer components alone from those rows, as their nonzeros, in O(dim)
time and memory, for the environment engine. assemble_family lays every
table out as a dense numpy array for the dense routes, L from build_L.

Conventions that matter and are pinned by the residual checks in
algebra_verifier (any sign change below makes those residuals O(1)):

- each plaquette {k+, k+1/2+, k+1/2-, k+1-} splits into two disjoint
  raising pairs: S+ hops k+ -> k+1/2+ and k+1/2- -> k+1-;
- the acute/grave off-diagonals carry the opposite-corner X_k elements:
  acute-S+ X and X grave-S+ carry X^{-+}_k, the minus partners carry X^{+-}_k;
- the bra of acute-S- X is the minus half-integer vertex.

assemble_family builds each table once. The L components conserve the total
charge, physical plus vertex (AuxSpace.charges); ness_engine.omega_blocks,
the one contraction that relies on it, refuses an entry that does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .aux_space import AuxSpace, AuxVertex, build_aux_space, spin_flip_aux, spin_flip_index
from .linalg import SPIN_LABELS

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


def build_S(space: AuxSpace, params: LaxParams) -> dict:
    """The four S components, each as its rows (cols, vals): row a holds
    vals[a] at column cols[a] alone. S+ and S- realize two disjoint
    fermionic raising/lowering pairs per plaquette with amplitude sqrt(2)
    and the staggered (-1)^k sign on S-; S0 and Sz are diagonal, with
    entries in {0, 1, lambda} depending on level parity and sign."""
    lam = params.lam
    S = {s: (np.arange(space.dim), np.zeros(space.dim, dtype=complex)) for s in SPIN_LABELS}
    for k in range(space.cutoff_K):  # plaquette K lies past the cutoff
        kp, khp, khm, k1m = (space.index[v] for v in _plaquette(k))
        S["+"][0][[kp, khm]], S["+"][1][[kp, khm]] = [khp, k1m], SQRT2
        S["-"][0][[khp, k1m]], S["-"][1][[khp, k1m]] = [kp, khm], SQRT2 * (-1) ** k
    # (S0, Sz) by (integer level?, sign, parity of the integer part m of the level)
    diag = {(True, +1, 0): (1.0, 0.0), (True, +1, 1): (0.0, 1.0),
            (True, -1, 0): (lam, 1.0), (True, -1, 1): (1.0, lam),
            (False, +1, 0): (1.0, lam), (False, +1, 1): (lam, 1.0),
            (False, -1, 0): (1.0, 0.0), (False, -1, 1): (0.0, 1.0)}
    for i, v in enumerate(space.vertices):
        S["0"][1][i], S["z"][1][i] = diag[v.is_integer, v.sign, v.twice_level // 2 % 2]
    return S


def x_rows(space: AuxSpace, params: LaxParams, blocks: list):
    """X = |0+><0+| + sum_k (-1)^k X_k on span{k-, k+} (k >= 1)
    + omega sum over half-integer vertices of (-1)^m on both signs, where
    m + 1/2 is the half-integer level, as its rows (cols, vals), each
    (dim, 2): row a holds vals[a, i] at column cols[a, i]; a row with one
    entry holds a zero at the next column."""
    idx = np.arange(space.dim)
    cols, vals = np.stack([idx, (idx + 1) % space.dim], axis=1), np.zeros((space.dim, 2), complex)
    vals[space.index[AuxVertex(0, +1)], 0] = 1.0
    for i, v in enumerate(space.vertices):
        if not v.is_integer:
            vals[i, 0] = params.omega * (-1) ** (v.twice_level // 2)
    for k, b in enumerate(blocks[1:], 1):
        i = [space.index[AuxVertex(2 * k, sign)] for sign in (-1, +1)]
        cols[i], vals[i] = i, (-1) ** k * b
    return cols, vals


def build_X(space: AuxSpace, params: LaxParams):
    """X of x_rows, dense. Returns (X, X^{-1}, blocks X_k for k = 0..K); the
    inverse is blockwise, one 2x2 inversion per integer block using
    det X_k = -omega^2."""
    params.require_invertible()
    om = params.omega
    blocks = [xk_matrix(k, params) for k in range(space.cutoff_K + 1)]
    cols, vals = x_rows(space, params, blocks)
    inv = vals.copy()  # the root row is its own inverse
    half = [i for i, v in enumerate(space.vertices) if not v.is_integer]
    inv[half, 0] = [1.0 / complex(d) for d in vals[half, 0]]
    for k, b in enumerate(blocks[1:], 1):
        i = [space.index[AuxVertex(2 * k, sign)] for sign in (-1, +1)]
        adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
        inv[i] = adj / (-om**2) * (-1) ** k  # inverse of (-1)^k X_k
    return _dense(space, cols, vals), _dense(space, cols, inv), blocks


def build_Y(space: AuxSpace, params: LaxParams) -> np.ndarray:
    """Y = -2 lambda u * (projector onto integer-level vertices)."""
    Y = _zeros(space)
    for v in space.vertices:
        if v.is_integer:
            i = space.index[v]
            Y[i, i] = -2.0 * params.lam * params.u
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
    """The transfer components L^{st} = S^s T^t X as their nonzeros,
    {(s, t): (rows, cols, vals)}, in O(dim) time and memory: a row of S^s or
    of T^t = G S^t G holds one entry at most and a row of X two, so a row of
    L^{st} two. Non-finite entries are kept, for the caller to refuse."""
    S, g = build_S(space, params), spin_flip_index(space)
    rows, L = np.repeat(np.arange(space.dim), 2), {}
    with np.errstate(over="ignore", invalid="ignore"):
        xc, xv = x_rows(space, params, [xk_matrix(k, params) for k in range(space.cutoff_K + 1)])
        for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS):
            (cs, vs), (ct, vt) = S[s], S[t]
            # row a of S^s T^t: vs[a] vt[g[cs[a]]] at column g[ct[g[cs[a]]]]
            j = g[ct[g[cs]]]
            vals = ((vs * vt[g[cs]])[:, None] * xv[j]).ravel()
            keep = vals != 0
            L[s, t] = rows[keep], xc[j].ravel()[keep], vals[keep]
    return L


def assemble_family(cutoff_K: int, params: LaxParams) -> LaxFamily:
    """Build every operator of the family at the given cutoff, L from
    build_L. Parameters whose tables overflow (u = 1e200 does) are refused
    with ValueError before any contraction reads them."""
    space = build_aux_space(int(cutoff_K))
    # an overflow shows as inf or nan in a table, refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        X, X_inv, blocks = build_X(space, params)
        S = {s: _dense(space, *rows) for s, rows in build_S(space, params).items()}
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
