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
X^{-1}. All matrices are dense numpy arrays (the auxiliary space is tiny);
they are built from explicit sparse triplets first.

Conventions that matter and are pinned by the residual checks in
algebra_verifier (any sign change below makes those residuals O(1)):

- each plaquette {k+, k+1/2+, k+1/2-, k+1-} splits into two disjoint
  raising pairs: S+ hops k+ -> k+1/2+ and k+1/2- -> k+1-;
- the acute/grave off-diagonals carry the opposite-corner X_k elements:
  acute-S+ X and X grave-S+ carry X^{-+}_k, the minus partners carry X^{+-}_k;
- the bra of acute-S- X is the minus half-integer vertex.

assemble_family refuses a family whose L components do not conserve the
total charge, physical plus vertex (AuxSpace.charges): the sector
contraction of the steady state would silently drop such entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .aux_space import AuxSpace, AuxVertex, build_aux_space, spin_flip_aux
from .linalg import SITE_CHARGES, SPIN_LABELS, local4

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


def xk_blocks(max_k: int, params: LaxParams) -> list:
    return [xk_matrix(k, params) for k in range(max_k + 1)]


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

def build_S(space: AuxSpace, params: LaxParams) -> dict:
    """The four S components. S+ and S- realize two disjoint fermionic
    raising/lowering pairs per plaquette with amplitude sqrt(2) and the
    staggered (-1)^k sign on S-; S0 and Sz are the diagonal tables with
    entries in {0, 1, lambda} depending on level parity and sign."""
    lam = params.lam
    S = {s: _zeros(space) for s in SPIN_LABELS}
    for k in range(space.cutoff_K + 1):
        kp, khp, khm, k1m = _plaquette(k)
        _put(space, S["+"], kp, khp, SQRT2)
        _put(space, S["+"], khm, k1m, SQRT2)
        _put(space, S["-"], khp, kp, SQRT2 * (-1) ** k)
        _put(space, S["-"], k1m, khm, SQRT2 * (-1) ** k)
    for v in space.vertices:
        i = space.index[v]
        if v.is_integer:
            m = v.twice_level // 2
            if v.sign > 0:
                S["0"][i, i] = 1.0 if m % 2 == 0 else 0.0
                S["z"][i, i] = 1.0 if m % 2 == 1 else 0.0
            else:
                S["0"][i, i] = 1.0 if m % 2 == 1 else lam
                S["z"][i, i] = lam if m % 2 == 1 else 1.0
        else:
            m = (v.twice_level - 1) // 2  # level is m + 1/2
            if v.sign > 0:
                S["0"][i, i] = 1.0 if m % 2 == 0 else lam
                S["z"][i, i] = lam if m % 2 == 0 else 1.0
            else:
                S["0"][i, i] = 1.0 if m % 2 == 0 else 0.0
                S["z"][i, i] = 1.0 if m % 2 == 1 else 0.0
    return S


def build_T(space: AuxSpace, S: dict, G: np.ndarray | None = None) -> dict:
    """T^t = G S^t G with the graph reflection G."""
    if G is None:
        G = spin_flip_aux(space)
    return {t: G @ S[t] @ G for t in SPIN_LABELS}


def build_X(space: AuxSpace, params: LaxParams):
    """X = |0+><0+| + sum_k (-1)^k X_k on span{k-, k+} (k >= 1)
    + omega sum over half-integer vertices of (-1)^m on both signs,
    where m + 1/2 is the half-integer level. Returns (matrix, blocks)."""
    om = params.omega
    X = _zeros(space)
    blocks = xk_blocks(space.cutoff_K, params)
    X[space.index[AuxVertex(0, +1)], space.index[AuxVertex(0, +1)]] = 1.0
    for v in space.vertices:
        i = space.index[v]
        if not v.is_integer:
            m = (v.twice_level - 1) // 2
            X[i, i] = om * (-1) ** m
    for k in range(1, space.cutoff_K + 1):
        i = [space.index[AuxVertex(2 * k, sign)] for sign in (-1, +1)]
        X[np.ix_(i, i)] = (-1) ** k * blocks[k]
    return X, blocks


def x_inverse(space: AuxSpace, params: LaxParams, blocks=None) -> np.ndarray:
    """Blockwise inverse of X: trivial on 0+ and the half-integer diagonal,
    2x2 inversion per integer block using det X_k = -omega^2."""
    params.require_invertible()
    om = params.omega
    if blocks is None:
        blocks = xk_blocks(space.cutoff_K, params)
    Xi = _zeros(space)
    Xi[space.index[AuxVertex(0, +1)], space.index[AuxVertex(0, +1)]] = 1.0
    for v in space.vertices:
        i = space.index[v]
        if not v.is_integer:
            m = (v.twice_level - 1) // 2
            Xi[i, i] = 1.0 / (om * (-1) ** m)
    for k in range(1, space.cutoff_K + 1):
        b = blocks[k]
        inv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / (-om**2)
        i = [space.index[AuxVertex(2 * k, sign)] for sign in (-1, +1)]
        Xi[np.ix_(i, i)] = inv * (-1) ** k  # inverse of (-1)^k X_k
    return Xi


def build_Y(space: AuxSpace, params: LaxParams) -> np.ndarray:
    """Y = -2 lambda u * (projector onto integer-level vertices)."""
    Y = _zeros(space)
    for v in space.vertices:
        if v.is_integer:
            i = space.index[v]
            Y[i, i] = -2.0 * params.lam * params.u
    return Y


def build_hatted(space: AuxSpace, params: LaxParams) -> tuple[dict, dict]:
    """The products acute-S^s X and X grave-S^s for s in {+,-,0,z}.

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
    blocks = xk_blocks(space.cutoff_K, params)  # rows and columns (-, +)
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
        SacX["0"][i, i] = d0
        SacX["z"][i, i] = dz
        XSgr["0"][i, i] = d0
        XSgr["z"][i, i] = dz
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
    Sacute: dict = field(default_factory=dict)
    Sgrave: dict = field(default_factory=dict)
    Tacute: dict = field(default_factory=dict)
    Tgrave: dict = field(default_factory=dict)
    L: dict = field(default_factory=dict)
    Ltilde: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.dim


def assemble_family(cutoff_K: int, params: LaxParams) -> LaxFamily:
    """Build every operator of the family at the given cutoff."""
    space = build_aux_space(int(cutoff_K))
    params.require_invertible()
    G = spin_flip_aux(space)
    S = build_S(space, params)
    T = build_T(space, S, G)
    X, blocks = build_X(space, params)
    X_inv = x_inverse(space, params, blocks)
    Y = build_Y(space, params)
    SacX, XSgr = build_hatted(space, params)
    TacX = {t: G @ SacX[t] @ G for t in SPIN_LABELS}
    XTgr = {t: G @ XSgr[t] @ G for t in SPIN_LABELS}

    fam = LaxFamily(
        params=params, space=space, G=G, S=S, T=T, X=X, X_blocks=blocks,
        X_inv=X_inv, Y=Y, SacuteX=SacX, XSgrave=XSgr, TacuteX=TacX,
        XTgrave=XTgr,
    )
    fam.Sacute = {s: SacX[s] @ X_inv for s in SPIN_LABELS}
    fam.Sgrave = {s: X_inv @ XSgr[s] for s in SPIN_LABELS}
    fam.Tacute = {t: TacX[t] @ X_inv for t in SPIN_LABELS}
    fam.Tgrave = {t: X_inv @ XTgr[t] for t in SPIN_LABELS}

    for s, t in itertools.product(SPIN_LABELS, SPIN_LABELS):
        ST = S[s] @ T[t]
        fam.L[(s, t)] = ST @ X
        fam.Ltilde[(s, t)] = 0.5 * (
            S[s] @ fam.Tacute[t]
            + T[t] @ fam.Sacute[s]
            + fam.Sgrave[s] @ T[t]
            + fam.Tgrave[t] @ S[s]
            - Y @ ST
            - ST @ Y
        ) @ X
    _check_charges(fam)
    return fam


def _check_charges(fam: LaxFamily) -> None:
    """Raise ValueError unless every component conserves the total charge:
    L^{st}[a, b] may be nonzero only where the vertex charge of b less that
    of a (AuxSpace.charges) is the charge that sigma^s tau^t adds. The
    sector contraction of the steady state relies on it."""
    q = fam.space.charges()
    moved = q[None, :, :] - q[:, None, :]  # [a, b]: charge of b less that of a
    for (s, t), L in fam.L.items():
        p, r = np.argwhere(local4(s, t))[0]
        off = (moved != SITE_CHARGES[p] - SITE_CHARGES[r]).any(axis=2) & (L != 0)
        if off.any():
            a, b = np.argwhere(off)[0]
            raise ValueError(f"L^{s}{t} breaks charge conservation between auxiliary "
                             f"vertices {fam.space.vertices[a]} and {fam.space.vertices[b]}")
