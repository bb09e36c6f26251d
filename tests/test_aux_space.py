import numpy as np
import pytest

from conftest import label, parse_label
from hubbard_lax.aux_space import AuxVertex, AuxSpace, build_aux_space, spin_flip_aux


def test_cutoff_one_vertices():
    sp = build_aux_space(1)
    labels = [label(v) for v in sp.vertices]
    assert labels == ["0+", "1/2+", "1/2-", "1-", "1+"]
    assert sp.dim == 5


def test_dimension_formula():
    for K in range(1, 7):
        assert build_aux_space(K).dim == 4 * K + 1


def test_vertex_levels_and_labels():
    v = AuxVertex(3, +1)
    assert label(v) == "3/2+"
    assert parse_label("3/2+") == v
    assert parse_label("2-") == AuxVertex(4, -1)


def test_level_zero_sign_restriction():
    with pytest.raises(ValueError):
        AuxVertex(0, -1)


def test_ordering_per_plaquette():
    sp = build_aux_space(3)
    labels = [label(v) for v in sp.vertices]
    assert labels[1:5] == ["1/2+", "1/2-", "1-", "1+"]
    assert labels[5:9] == ["3/2+", "3/2-", "2-", "2+"]


def test_spin_flip_fixes_integer_swaps_half_integer():
    sp = build_aux_space(2)
    G = spin_flip_aux(sp)
    # involution
    assert np.allclose(G @ G, np.eye(sp.dim))
    iz = sp.index[AuxVertex(0, +1)]
    assert G[iz, iz] == 1.0
    ip = sp.index[AuxVertex(1, +1)]
    im = sp.index[AuxVertex(1, -1)]
    assert G[im, ip] == 1.0 and G[ip, im] == 1.0 and G[ip, ip] == 0.0
    i1m = sp.index[AuxVertex(2, -1)]
    assert G[i1m, i1m] == 1.0


def test_level_prefix():
    sp = build_aux_space(7)
    for K in range(7):
        m = sp.level_prefix(K)
        assert m == 4 * K + 1
        assert sp.vertices[:m] == [v for v in sp.vertices if v.level <= K]
    perm = np.random.default_rng(1).permutation(sp.dim)
    assert perm[0] != 0  # the root is not first
    verts = [sp.vertices[i] for i in perm]
    shuffled = AuxSpace(cutoff_K=7, vertices=verts, index={v: i for i, v in enumerate(verts)})
    with pytest.raises(AssertionError):
        shuffled.level_prefix(0)


def test_vertex_charges():
    sp = build_aux_space(2)
    charges = {label(v): tuple(q) for v, q in zip(sp.vertices, sp.charges())}
    assert charges == {"0+": (0, 0), "1/2+": (1, 0), "1/2-": (0, 1), "1-": (1, 1),
                       "1+": (1, 1), "3/2+": (2, 1), "3/2-": (1, 2), "2-": (2, 2),
                       "2+": (2, 2)}
