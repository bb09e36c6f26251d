"""Truncated auxiliary Hilbert space.

The basis is the vertex set of a half-integer-level graph: a single root 0+
followed by one "plaquette" of four vertices per integer level,

    0+,  1/2+, 1/2-, 1-, 1+,  3/2+, 3/2-, 2-, 2+,  ...

Vertices are labelled by (level, sign) with level in {0, 1/2, 1, 3/2, ...};
level 0 exists only with sign +. Internally levels are stored doubled
(twice_level) so everything stays integer.

Each vertex carries a charge (sigma, tau) (AuxSpace.charges): the transfer
components sigma^s tau^t L^{st} conserve the physical charge plus this one,
which makes the steady state block diagonal in the charge sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AuxVertex:
    twice_level: int  # 2 * level, so integer levels are even
    sign: int         # +1 or -1

    @property
    def level(self) -> float:
        return self.twice_level / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_level % 2 == 0

    def __post_init__(self):
        if self.twice_level < 0:
            raise ValueError("negative level")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.twice_level == 0 and self.sign != +1:
            raise ValueError("level 0 exists only with sign +")


@dataclass
class AuxSpace:
    """Ordered basis of the graph truncated at integer level cutoff_K."""

    cutoff_K: int
    vertices: list = field(default_factory=list)
    index: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.vertices)

    def levels(self) -> np.ndarray:
        """Vertex levels as a float array in basis order."""
        return np.array([v.level for v in self.vertices])

    def charges(self) -> np.ndarray:
        """Vertex charges (sigma, tau) in basis order, as a (dim, 2) integer
        array: (k, k) at integer level k, either sign (0+ too); (k+1, k) at
        (k+1/2)+ and (k, k+1) at (k+1/2)-. A component L^{st}[a, b] may be
        nonzero only where the charge of b less that of a is the charge that
        sigma^s tau^t adds (linalg.sector_chain refuses a tensor that does not)."""
        def charge(v):
            k = v.twice_level // 2
            if v.is_integer:
                return (k, k)
            return (k + 1, k) if v.sign > 0 else (k, k + 1)

        return np.array([charge(v) for v in self.vertices], dtype=np.int64)

    def level_prefix(self, max_level: float) -> int:
        """Number m of vertices with level <= max_level. They are the first m
        of the basis, which is asserted, so [:m] restricts an operator to them."""
        keep = self.levels() <= max_level + 1e-9
        m = int(keep.sum())
        assert keep[:m].all(), "auxiliary basis is not ordered by level"
        return m


def build_aux_space(cutoff_K: int) -> AuxSpace:
    """Canonical ordering: 0+, then per k = 0..K-1 the plaquette
    (k+1/2)+, (k+1/2)-, (k+1)-, (k+1)+.  dim = 4K + 1."""
    if cutoff_K < 1:
        raise ValueError("cutoff_K must be >= 1 (no room for any transition)")
    verts = [AuxVertex(0, +1)]
    for k in range(cutoff_K):
        tl = 2 * k + 1
        verts += [
            AuxVertex(tl, +1),
            AuxVertex(tl, -1),
            AuxVertex(tl + 1, -1),
            AuxVertex(tl + 1, +1),
        ]
    space = AuxSpace(cutoff_K=cutoff_K, vertices=verts,
                     index={v: i for i, v in enumerate(verts)})
    assert space.dim == 4 * cutoff_K + 1
    return space


def spin_flip_aux(space: AuxSpace) -> np.ndarray:
    """The graph reflection: fixes integer-level vertices, swaps the sign of
    half-integer ones. A symmetric permutation matrix, its own inverse."""
    G = np.zeros((space.dim, space.dim))
    for v in space.vertices:
        w = v if v.is_integer else AuxVertex(v.twice_level, -v.sign)
        G[space.index[w], space.index[v]] = 1.0
    return G
