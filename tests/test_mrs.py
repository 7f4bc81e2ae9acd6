"""Marked reflection systems: Grams, mutations, braid relations, phase
sorting, phase-rotation monodromy, and wedge products."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc

from qgamma.rings import CohClass

from qgamma.mrs import (SOB, MRS, gram, is_uni_uppertriangular, braid_act,
                        right_mutation, left_mutation, h_phase, is_admissible,
                        sort_by_phase, stokes_matrix, mutate_phase_rotation,
                        wedge_mrs, beilinson_gamma_mrs, kapranov_gamma_mrs)


def _int_sob(seed, n=4):
    rng = np.random.default_rng(seed)
    G = np.triu(rng.integers(-5, 6, size=(n, n)), 1) + np.eye(n, dtype=int)
    pairing = lambda a, b, G=G: a @ G @ b
    return SOB([np.eye(n, dtype=int)[i] for i in range(n)], pairing), G


def test_beilinson_gram_binomial():
    for N in [2, 3, 4, 5]:
        m = beilinson_gamma_mrs(N)
        g = gram(SOB(m.vectors, m.pairing))
        gi = np.round(g.real).astype(int)
        assert np.max(np.abs(g - gi)) < 1e-9
        for i in range(N):
            for j in range(N):
                want = math.comb(N - 1 + j - i, N - 1) if j >= i else 0
                assert gi[i, j] == want


def test_kapranov_gram_g24():
    m = kapranov_gamma_mrs(2, 4)
    g = gram(SOB(m.vectors, m.pairing))
    gi = np.round(g.real).astype(int)
    assert np.max(np.abs(g - gi)) < 1e-9
    assert is_uni_uppertriangular(g)
    assert gi[0].tolist() == [1, 4, 6, 10, 20, 20]


def test_mutation_orthogonalizes():
    sob, _ = _int_sob(3)
    v, u = sob.vectors[0] + 2 * sob.vectors[1], sob.vectors[2]
    w = right_mutation(v, u, sob.pairing)
    assert sob.pairing(w, u) == 0
    w = left_mutation(v, u, sob.pairing)
    assert sob.pairing(u, w) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_braid_relations(seed):
    sob, _ = _int_sob(seed)
    a = braid_act(sob, [1, 2, 1])
    b = braid_act(sob, [2, 1, 2])
    assert all(np.array_equal(x, y) for x, y in zip(a.vectors, b.vectors))
    a = braid_act(sob, [1, 3])
    b = braid_act(sob, [3, 1])
    assert all(np.array_equal(x, y) for x, y in zip(a.vectors, b.vectors))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_braid_inverse_and_shape(seed, i):
    sob, _ = _int_sob(seed)
    s = braid_act(braid_act(sob, [i]), [-i])
    assert all(np.array_equal(a, b) for a, b in zip(s.vectors, sob.vectors))
    assert is_uni_uppertriangular(gram(braid_act(sob, [i])))


def test_braid_act_on_classes_never_formats_repr(monkeypatch):
    # mutations put the class on the left of the mpc pairing; an mpmath
    # scalar on the left would format repr(CohClass) before falling back
    def refuse(self):
        raise AssertionError("repr(CohClass) was formatted")
    monkeypatch.setattr(CohClass, "__repr__", refuse)
    base = beilinson_gamma_mrs(4)
    sob = SOB(base.vectors, base.pairing)
    out = braid_act(sob, [1, -1, 2])
    back = braid_act(sob, [1, -1])
    for a, b in zip(back.vectors, base.vectors):
        assert max(abs(mpc(x) - mpc(y)) for x, y in zip(a.coeffs, b.coeffs)) < 1e-25
    assert is_uni_uppertriangular(gram(out))


def test_admissibility():
    mk = [2.0 + 0j, -2.0 + 0j]
    assert is_admissible(mk, -0.05)
    assert not is_admissible(mk, 0.0)
    assert not is_admissible(mk, math.pi)


def test_sort_by_phase_order():
    mk = [3 * cmath.exp(-2j * math.pi * j / 3) for j in range(3)]
    m = MRS(vectors=[0, 1, 2], markings=mk, phase=-0.05,
            pairing=lambda a, b: 0)
    sob = sort_by_phase(m)
    hs = [h_phase(mk[v], -0.05) for v in sob.vectors]
    assert hs == sorted(hs, reverse=True)


def test_stokes_p1():
    m = beilinson_gamma_mrs(2)
    S = stokes_matrix(m)
    assert np.allclose(S.real, [[1, 2], [0, 1]], atol=1e-9)


def test_stokes_rejects_bad_order():
    m = beilinson_gamma_mrs(4)
    with pytest.raises((ArithmeticError, ValueError)):
        stokes_matrix(m)


def test_phase_rotation_p1_example():
    G = np.array([[1, 2], [0, 1]])
    m = MRS(vectors=[np.eye(2, dtype=int)[i] for i in range(2)],
            markings=[2.0 + 0j, -2.0 + 0j], phase=-0.05,
            pairing=lambda a, b: a @ G @ b)
    m2, log = mutate_phase_rotation(m, -3.3)
    assert len(log) == 1 and log[0]["direction"] == "R"
    assert abs(log[0]["crossing_angle"] + math.pi) < 1e-12
    assert np.array_equal(m2.vectors[0], [1, -2])
    assert np.array_equal(m2.vectors[1], [0, 1])


def test_phase_rotation_monodromy_p2():
    G = np.array([[1, 3, 6], [0, 1, 3], [0, 0, 1]])
    mk = [3 * cmath.exp(-2j * math.pi * j / 3) for j in range(3)]
    phase = -(math.pi / 2 + 0.3)
    m = MRS(vectors=[np.eye(3, dtype=int)[i] for i in range(3)], markings=mk,
            phase=phase, pairing=lambda a, b: a @ G @ b)
    m2, _ = mutate_phase_rotation(m, phase - 2 * math.pi)
    M = np.array(m2.vectors).T
    assert M.dtype.kind == "i" or np.allclose(M, np.round(M))
    assert abs(round(np.linalg.det(M))) == 1
    assert np.array_equal(M.T @ G @ M, G)


def test_left_right_rotation_inverse():
    # valid down-up round trip on the P^1 system, where semiorthogonality
    # holds at every crossing
    G = np.array([[1, 2], [0, 1]])
    m = MRS(vectors=[np.eye(2, dtype=int)[i] for i in range(2)],
            markings=[2.0 + 0j, -2.0 + 0j], phase=-0.05,
            pairing=lambda a, b: a @ G @ b)
    down, _ = mutate_phase_rotation(m, -3.3)
    back, _ = mutate_phase_rotation(down, -0.05)
    for a, b in zip(back.vectors, m.vectors):
        assert np.array_equal(a, b)


def test_wedge_mrs_gram_is_minor_determinant():
    sob, G = _int_sob(11)
    m = MRS(vectors=sob.vectors, markings=[4.0, 1.0, -2.0, -4.0],
            phase=-0.05, pairing=sob.pairing)
    w = wedge_mrs(m, 2)
    g = gram(SOB(w.vectors, w.pairing))
    import itertools
    combos = list(itertools.combinations(range(4), 2))
    for a, ca in enumerate(combos):
        for b, cb in enumerate(combos):
            minor = G[np.ix_(ca, cb)]
            assert g[a, b] == round(np.linalg.det(minor))
    assert w.markings[0] == 5.0
