"""Marked reflection systems: Grams, mutations, braid relations, phase
sorting, phase-rotation monodromy, wedge systems, and the exact Euler matrix
with its Serre/Lefschetz check."""

import cmath
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mpc

from qgamma.rings import CohClass, build_ring, compound, cup, wedge_exponents
from qgamma.charclasses import gamma_class, kapranov_ch
from qgamma.connection import spectrum_closed_form

from qgamma.mrs import (SOB, MRS, gram, integer_gram, is_uni_uppertriangular, braid_act,
                        h_phase, greedy_groups, is_admissible, stokes_matrix, phase_rotation,
                        mutate_phase_rotation, euler_matrix, gamma_mrs,
                        beilinson_gamma_mrs, kapranov_gamma_mrs)


def right_mutation(v, u, pairing):
    """R_u v = v - [v, u) u, on the vectors themselves: the oracle of the
    integer-row kernel that braid_act and phase_rotation share."""
    return v - u * pairing(v, u)


def left_mutation(v, u, pairing):
    """L_u v = v - [u, v) u."""
    return v - u * pairing(u, v)


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
    assert is_uni_uppertriangular(gi)
    assert gi[0].tolist() == [1, 4, 6, 10, 20, 20]


@pytest.mark.parametrize("N", range(2, 7))
def test_gamma_mrs_of_projective_space_is_the_beilinson_basis(N):
    # Gamma-hat Ch(O(j)), marked N e^{-2 pi i j / N}, built without the ring basis
    ring = build_ring("P", N)
    m = gamma_mrs(ring)
    gam = gamma_class(ring)
    # the cached vectors keep tuple coefficients
    assert [list(v.coeffs) for v in m.vectors] == [cup(gam, kapranov_ch((j,), ring)).coeffs
                                                   for j in range(N)]
    assert m.markings == [N * cmath.exp(-2j * math.pi * j / N) for j in range(N)]
    assert beilinson_gamma_mrs(N).markings == m.markings


def _rotated_wedge_markings(r, N):
    """Marking of S^nu V*: sum of the P-markings at k = (nu_1 + r - 1, ...,
    nu_r), rotated by e^{(r-1) pi i / N}; the formula as first written."""
    rot = cmath.exp(1j * math.pi * (r - 1) / N)
    out = []
    for nu in build_ring("G", N, r).basis:
        padded = list(nu) + [0] * (r - len(nu))
        ks = [padded[i] + r - 1 - i for i in range(r)]
        out.append(sum(N * rot * cmath.exp(-2j * math.pi * k / N) for k in ks))
    return out


@pytest.mark.parametrize("r,N", [(2, 4), (2, 5), (3, 6), (3, 7), (2, 8), (4, 8), (3, 9)])
def test_kapranov_markings_are_the_rotated_wedge_sums(r, N):
    assert spectrum_closed_form(r, N) == _rotated_wedge_markings(r, N)


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
    _, G = _int_sob(seed)
    assert np.array_equal(braid_act(G, [1, 2, 1]), braid_act(G, [2, 1, 2]))
    assert np.array_equal(braid_act(G, [1, 3]), braid_act(G, [3, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_braid_inverse_and_shape(seed, i):
    _, G = _int_sob(seed)
    R = np.array(braid_act(G, [i]), dtype=object)
    assert np.array_equal(braid_act(G, [i, -i]), np.eye(4, dtype=int))
    # an action: sigma_i^{-1} on the mutated system, whose Gram is R G R^T
    assert np.array_equal(braid_act(R @ G @ R.T, [-i]) @ R, np.eye(4, dtype=int))
    assert is_uni_uppertriangular(R @ G @ R.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=8))
def test_braid_rows_are_the_vector_mutations(seed, word):
    # the integer rows of braid_act against the mutations of the vectors, in
    # Python ints: eight mutations can pass 2^63
    _, G = _int_sob(seed)
    exact = G.astype(object)
    pairing = lambda a, b: a @ exact @ b
    vs = list(np.eye(4, dtype=object))
    for g in word:
        i = abs(g) - 1
        if g > 0:
            vs[i], vs[i + 1] = vs[i + 1], right_mutation(vs[i], vs[i + 1], pairing)
        else:
            vs[i], vs[i + 1] = left_mutation(vs[i + 1], vs[i], pairing), vs[i]
    assert braid_act(G, word) == [list(v) for v in vs]


def test_braid_generator_out_of_range():
    with pytest.raises(ValueError):
        braid_act(np.eye(3, dtype=int), [3])


def test_rotation_of_classes_is_the_integer_rows_and_never_formats_repr(monkeypatch):
    # mutate_phase_rotation maps the integer rows back onto the classes with
    # the class on the left of each coefficient; an mpmath scalar on the
    # left would format repr(CohClass) before falling back
    def refuse(self):
        raise AssertionError("repr(CohClass) was formatted")
    monkeypatch.setattr(CohClass, "__repr__", refuse)
    base = beilinson_gamma_mrs(2)
    out, log = mutate_phase_rotation(base, -3.3)
    rows, want_log = phase_rotation(euler_matrix(build_ring("P", 2)), base.markings, -0.05, -3.3)
    assert rows == [[1, -2], [0, 1]] and log == want_log
    for a, row in zip(out.vectors, rows):
        want = [sum(c * mpc(x) for c, x in zip(row, xs))
                for xs in zip(*(v.coeffs for v in base.vectors))]
        assert max(abs(mpc(x) - y) for x, y in zip(a.coeffs, want)) < 1e-30


def test_admissibility():
    mk = [2.0 + 0j, -2.0 + 0j]
    assert is_admissible(mk, -0.05)
    assert not is_admissible(mk, 0.0)
    assert not is_admissible(mk, math.pi)


def test_sort_by_phase_order():
    # a Gram that is uni-uppertriangular in the phase order only, with each
    # entry naming its place in that order: stokes_matrix must put it there
    mk = [4 * cmath.exp(-2j * math.pi * j / 4) for j in range(4)]
    order = sorted(range(4), key=lambda i: -h_phase(mk[i], -0.05))
    assert order != sorted(order)
    want = [[int(a == b) or (10 * a + b if a < b else 0) for b in range(4)] for a in range(4)]
    G = np.zeros((4, 4), dtype=object)
    G[np.ix_(order, order)] = want
    assert stokes_matrix(G, mk, -0.05) == want


def test_stokes_p1():
    S = stokes_matrix(euler_matrix(build_ring("P", 2)), spectrum_closed_form(1, 2), -0.05)
    assert S == [[1, 2], [0, 1]]


def test_stokes_rejects_bad_order():
    with pytest.raises((ArithmeticError, ValueError)):
        stokes_matrix(euler_matrix(build_ring("P", 4)), spectrum_closed_form(1, 4), -0.05)


def test_stokes_rejects_a_nonzero_entry_between_equal_markings():
    # unitriangular in either order of the equal pair, but they must not pair
    with pytest.raises(ArithmeticError, match="equal markings"):
        stokes_matrix(np.array([[1, 1], [0, 1]], dtype=object), [1j, 1j], -0.05)


def test_one_rule_for_equal_markings():
    # markings 5e-10 apart are one group at 1e-9 for the admissibility test,
    # the Stokes check and phase_rotation alike: e^{i pi / 2} is parallel to
    # their difference, yet the phase is admissible
    mk = [1 + 0j, 1 + 5e-10j, -1 + 0j]
    assert greedy_groups(mk, 1e-9) == [[0, 1], [2]]
    assert is_admissible(mk, math.pi / 2) and not is_admissible(mk, 0.0)
    G = [[1, 0, 0], [0, 1, 0], [2, 2, 1]]
    assert stokes_matrix(G, mk, math.pi / 2) == [[1, 2, 2], [0, 1, 0], [0, 0, 1]]
    G[0][1] = 3   # still unitriangular in the phase order
    with pytest.raises(ArithmeticError, match="equal markings"):
        stokes_matrix(G, mk, math.pi / 2)


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


def _wedge_system(G, markings, r):
    """Lambda^r of the integer system of unit vectors paired by G: its Gram,
    the r x r minors of G on r-subsets i_1 < ... < i_r, and its markings,
    the summed markings u_{i_1} + ... + u_{i_r}."""
    combos = list(itertools.combinations(range(len(G)), r))
    minors = compound(G, r)
    W = np.array([[minors[a, b] for b in combos] for a in combos], dtype=object)
    return W, [sum(markings[i] for i in c) for c in combos]


def test_wedge_mrs_gram_is_minor_determinant():
    _, G = _int_sob(11)
    W, markings = _wedge_system(G.tolist(), [4.0, 1.0, -2.0, -4.0], 2)
    combos = list(itertools.combinations(range(4), 2))
    for a, ca in enumerate(combos):
        for b, cb in enumerate(combos):
            minor = G[np.ix_(ca, cb)]
            assert W[a, b] == round(np.linalg.det(minor))
    assert markings[0] == 5.0


def test_wedge_of_p2_integer_system_is_semiorthonormal_in_phase_order():
    # Lambda^2 of the P^2 Beilinson system: its Stokes matrix exists (unit
    # diagonal, zero lower triangle in phase order) and is integral
    ring = build_ring("P", 3)
    W, markings = _wedge_system(euler_matrix(ring), spectrum_closed_form(1, 3), 2)
    assert stokes_matrix(W, markings, -1.87) == [[1, 3, 3], [0, 1, 3], [0, 0, 1]]


# --- the exact Euler matrix -------------------------------------------------

# every target of rank <= 35 but G(1,N), which is P^{N-1} under another name
SMALL_TARGETS = ([("P", N, 1) for N in range(2, 36)] +
                 [("G", N, r) for N in range(4, 36) for r in range(2, N)
                  if math.comb(N, r) <= 35])


@pytest.mark.parametrize("kind,N,r", SMALL_TARGETS, ids=lambda x: str(x))
def test_euler_matrix_is_the_rounded_numeric_gram(kind, N, r):
    # rounded in mpmath, so exact past 2^53 (P^29 on)
    ring = build_ring(kind, N, r)
    E = euler_matrix(ring)
    ints, err = integer_gram(gamma_mrs(ring))
    assert all(type(e) is int for row in E for e in row)
    assert ints == E and err < 1e-9


@pytest.mark.parametrize("r,N", [(N - s, N) for N in range(3, 10) for s in range(1, (N + 1) // 2)])
def test_euler_matrix_past_half_the_box_is_the_direct_compound(r, N):
    # the complementary-minor route of euler_matrix against the r-th compound
    # of the Beilinson table itself
    table = [[math.comb(N - 1 + j - i, N - 1) if j >= i else 0 for j in range(N)]
             for i in range(N)]
    minors = compound(table, r)
    keys = [wedge_exponents(nu, r)[::-1] for nu in build_ring("G", N, r).basis]
    assert euler_matrix(build_ring("G", N, r)) == [[minors[a, b] for b in keys]
                                                   for a in keys]


@pytest.mark.parametrize("r,N", [(3, 13), (5, 10), (2, 25), (23, 25)])
def test_euler_matrix_is_unitriangular_at_the_top_of_the_range(r, N):
    E = euler_matrix(build_ring("G", N, r))
    assert np.array_equal(E, np.triu(E)) and set(np.diag(E)) == {1}


def _rank(rows):
    """Rank over Q of an integer matrix, by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _unitriangular_inverse(K):
    """The inverse of an upper unitriangular integer matrix, by back
    substitution: an integer matrix."""
    n = len(K)
    inv = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(n):
            inv[i][j] = int(i == j) - sum(K[i][k] * inv[k][j] for k in range(i + 1, n))
    return inv


@pytest.mark.parametrize("kind,N,r", [("P", 3, 1), ("P", 5, 1), ("G", 4, 2), ("G", 5, 2),
                                      ("G", 6, 3), ("G", 7, 2), ("G", 7, 3), ("G", 7, 5)])
def test_serre_functor_has_the_jordan_type_of_sigma_1(kind, N, r):
    # Serre duality: K^{-1} K^T acts on K_0 as (-1)^dim times the twist by
    # the canonical bundle, so K^{-1} K^T - (-1)^dim is nilpotent with the
    # Jordan type of c_1 cup, i.e. of sigma_1 cup; equal ranks of all powers
    ring = build_ring(kind, N, r)
    K = euler_matrix(ring)
    n = ring.rank
    S = _int_mat_mul(_unitriangular_inverse(K), [list(c) for c in zip(*K)])
    nil = [[S[i][j] - (-1) ** ring.dim * (i == j) for j in range(n)] for i in range(n)]
    L = [[0] * n for _ in range(n)]
    for j in range(n):
        for k, c in ring.cup_table[(ring.index[(1,)], j)]:
            L[k][j] = c

    def ranks_of_powers(A):
        out, power = [], A
        for _ in range(ring.dim + 1):
            out.append(_rank(power))
            power = _int_mat_mul(power, A)
        return out
    ranks = ranks_of_powers(L)
    assert ranks_of_powers(nil) == ranks and ranks[-1] == 0


@pytest.mark.parametrize("entry", [2**53 - 1, 2**53 + 1, 10**20 + 7, 55 * 10**23])
def test_integer_gram_is_exact_below_2_53_and_refuses_past_it(entry):
    # Python ints are rounded as they are: exact on both sides of 2^53,
    # where a float64 cast would round 2^53 + 1 to 2^53, and up to the
    # 5.5e24 of the G(2,25) Euler matrix
    G = np.array([[1, entry], [0, 1]], dtype=object)
    m = MRS(vectors=list(np.eye(2, dtype=object)), markings=[2.0 + 0j, -2.0 + 0j],
            phase=-0.05, pairing=lambda a, b: a @ G @ b)
    ints, err = integer_gram(m)
    assert ints == G.tolist() and err == 0.0
    m2, _ = mutate_phase_rotation(m, -3.3)
    assert [list(v) for v in m2.vectors] == [[1, -entry], [0, 1]]
    rows, _ = phase_rotation(G, m.markings, -0.05, -3.3)
    assert rows == [[1, -entry], [0, 1]]


# --- whole turns by the one-turn monodromy ----------------------------------

def _replay_rotation(m, phi_target):
    """Reference rotation: every crossing replayed on the vectors, turn after
    turn (the per-crossing loop that the monodromy power replaces)."""
    phi0, phi1 = m.phase, phi_target
    decreasing = phi1 < phi0
    groups = []
    for i, u in enumerate(m.markings):
        for g in groups:
            if abs(m.markings[g[0]] - u) < 1e-9:
                g.append(i)
                break
        else:
            groups.append([i])
    events = []
    for a in groups:
        for b in groups:
            if a is b:
                continue
            d = m.markings[b[0]] - m.markings[a[0]]
            theta = math.atan2(d.imag, d.real)
            if decreasing:
                c = theta + 2 * math.pi * math.floor((phi0 - theta) / (2 * math.pi))
                while c > phi1:
                    if c < phi0 - 1e-12:
                        events.append((c, a, b, abs(d)))
                    c -= 2 * math.pi
            else:
                c = theta + 2 * math.pi * math.ceil((phi0 - theta) / (2 * math.pi))
                while c < phi1:
                    if c > phi0 + 1e-12:
                        events.append((c, a, b, abs(d)))
                    c += 2 * math.pi
    events.sort(key=lambda e: (-e[0] if decreasing else e[0], -e[3]))
    mutate = right_mutation if decreasing else left_mutation
    vectors = list(m.vectors)
    steps = []
    for _, a, b, _ in events:
        for i in a:
            v = vectors[i]
            for k in b:
                v = mutate(v, vectors[k], m.pairing)
            vectors[i] = v
        steps.append((complex(m.markings[b[0]]), list(a)))
    return vectors, steps


def _reduced_travel(phase, target):
    """(k, rest) with |target - phase| = 2 pi k + rest and 0 <= rest < 2 pi,
    reduced at 2,200 bits, so exact for any finite float phases."""
    with mpmath.workprec(2200):
        two_pi = 2 * mpmath.pi
        travelled = abs(mpmath.mpf(target) - phase)
        k = int(mpmath.floor(travelled / two_pi))
        return k, float(travelled - k * two_pi)


@st.composite
def _semiorthonormal_systems(draw):
    """An integer system, semiorthonormal in the phase order of an
    admissible phase, with markings in general position (no two distinct
    difference directions parallel) and possibly repeated markings."""
    n = draw(st.integers(2, 5))
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=2, max_size=n, unique=True))
    owner = draw(st.permutations(list(range(len(points))) +
                                 draw(st.lists(st.integers(0, len(points) - 1),
                                               min_size=n - len(points),
                                               max_size=n - len(points)))))
    markings = [complex(*points[p]) for p in owner]
    dirs = [(q[0] - p[0], q[1] - p[1])
            for p, q in itertools.combinations(points, 2)]
    assume(all(a[0] * b[1] != a[1] * b[0]
               for a, b in itertools.combinations(dirs, 2)))
    angles = [math.atan2(y, x) for x, y in dirs]

    def admissible(phi):
        return all(abs(math.sin(phi - t)) > 1e-3 for t in angles)
    phase = draw(st.floats(-4, 4))
    assume(admissible(phase))
    # upper unitriangular in phase order, zero between equal markings
    order = sorted(range(n), key=lambda i: (-h_phase(markings[i], phase), i))
    G = np.eye(n, dtype=int)
    for a, b in itertools.combinations(range(n), 2):
        i, j = order[a], order[b]
        if owner[i] != owner[j]:
            G[i, j] = draw(st.integers(-3, 3))
    turns = draw(st.integers(0, 5))
    rest = draw(st.floats(0.01, 2 * math.pi - 0.01))
    sign = draw(st.sampled_from([-1, 1]))
    target = phase + sign * (2 * math.pi * turns + rest)
    assume(admissible(target))
    m = MRS(vectors=[np.eye(n, dtype=int)[i] for i in range(n)], markings=markings,
            phase=phase, pairing=lambda a, b: a @ G @ b)
    return m, target


@settings(max_examples=100, deadline=None)
@given(_semiorthonormal_systems())
def test_phase_rotation_of_the_gram_is_the_adapter(system):
    # the integer layer on the Gram against the adapter on the vectors
    m, target = system
    G, _ = integer_gram(m)
    rows, log = phase_rotation(G, m.markings, m.phase, target)
    m2, want_log = mutate_phase_rotation(m, target)
    assert rows == [list(v) for v in m2.vectors] and log == want_log


@settings(max_examples=150, deadline=None)
@given(_semiorthonormal_systems())
def test_rotation_matches_replayed_crossings(system):
    m, target = system
    m2, log = mutate_phase_rotation(m, target)
    want, steps = _replay_rotation(m, target)
    assert all(np.array_equal(a, b) for a, b in zip(m2.vectors, want))
    assert all(v.dtype.kind == "i" for v in m2.vectors)
    assert sum(e["count"] for e in log) == len(steps)
    # unrolled, the log is the first turn `count` times, then the remainder
    # (with count 1 the two cannot be told apart, nor need they be)
    k = log[0]["count"] if log else 1
    block = list(itertools.takewhile(lambda e: e["count"] == k, log))
    unrolled = [(e["moved_marking"], e["affected_indices"])
                for e in block * k + log[len(block):]]
    assert unrolled == steps


def _p2_integer_mrs(phase=-(math.pi / 2 + 0.3)):
    G = np.array([[1, 3, 6], [0, 1, 3], [0, 0, 1]])
    mk = [3 * cmath.exp(-2j * math.pi * j / 3) for j in range(3)]
    return MRS(vectors=[np.eye(3, dtype=int)[i] for i in range(3)], markings=mk,
               phase=phase, pairing=lambda a, b: a @ G @ b), G.tolist()


def _int_mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _int_mat_pow(a, k):
    power = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while k:
        if k & 1:
            power = _int_mat_mul(power, a)
        a, k = _int_mat_mul(a, a), k >> 1
    return power


def test_million_turns_are_the_monodromy_power():
    m, G = _p2_integer_mrs()
    one, _ = mutate_phase_rotation(m, m.phase - 2 * math.pi)
    many, log = mutate_phase_rotation(m, m.phase - 2 * math.pi * 10**6)
    M1 = [[int(x) for x in v] for v in one.vectors]
    Mk = [[int(x) for x in v] for v in many.vectors]
    assert Mk == _int_mat_pow(M1, 10**6)
    assert _int_mat_mul(_int_mat_mul(Mk, G), [list(c) for c in zip(*Mk)]) == G
    assert len(log) <= 12 and sum(e["count"] for e in log) == 6 * 10**6


def _quasi_unipotent(M):
    """Every eigenvalue of the integer matrix M (n <= 5) is a root of unity,
    so its powers grow polynomially: the orders possible in degree <= 5
    divide 120, so (M^120 - 1)^n = 0."""
    n = len(M)
    P = _int_mat_pow(M, 120)
    nil = [[P[i][j] - (i == j) for j in range(n)] for i in range(n)]
    return not any(any(row) for row in _int_mat_pow(nil, n))


@settings(max_examples=100, deadline=None)
@given(_semiorthonormal_systems(), st.data())
def test_far_rotation_is_the_monodromy_power_then_the_remainder(system, data):
    m, _ = system
    m = replace(m, vectors=[v.astype(object) for v in m.vectors])
    sign = data.draw(st.sampled_from([-1, 1]))
    one, one_steps = _replay_rotation(m, m.phase + sign * 2 * math.pi)
    M1 = [[int(x) for x in v] for v in one]
    # only polynomial growth keeps M1^k computable for k up to 10^30
    turns = data.draw(st.integers(0, 10**30 if _quasi_unipotent(M1) else 64))
    target = m.phase + sign * (2 * math.pi * turns + data.draw(st.floats(0.01, 6.27)))
    # far out the float target is whole turns and more off the drawn one:
    # its own remainder, reduced here, decides where it lies
    k, rest = _reduced_travel(m.phase, target)
    assume(is_admissible(m.markings, m.phase + sign * rest))
    start = replace(m, vectors=[np.array(row, dtype=object) for row in _int_mat_pow(M1, k)])
    want, tail_steps = _replay_rotation(start, m.phase + sign * rest)
    m2, log = mutate_phase_rotation(m, target)
    assert [list(v) for v in m2.vectors] == [list(v) for v in want]
    assert sum(e["count"] for e in log) == k * len(one_steps) + len(tail_steps)


def test_rotation_of_a_non_semiorthonormal_start_raises():
    # the Beilinson order of P^2 is not a phase order at -0.05
    m, _ = _p2_integer_mrs(phase=-0.05)
    with pytest.raises(ArithmeticError):
        mutate_phase_rotation(m, -3.0)   # less than a turn: the start is checked
    with pytest.raises(ArithmeticError):
        mutate_phase_rotation(m, -0.05 - 2 * math.pi - 0.1)


@pytest.mark.parametrize("start, target", [
    (-math.pi / 2, -7.0), (-1.87, -math.pi / 2),
    (math.nan, -7.0), (-1.87, math.nan), (-1.87, -math.inf), (math.inf, 0.3)])
def test_rotation_needs_admissible_finite_phases(start, target):
    m, _ = _p2_integer_mrs(phase=start)
    with pytest.raises(ValueError):
        mutate_phase_rotation(m, target)


def test_admissibility_of_non_finite_phases():
    mk = [2.0 + 0j, -2.0 + 0j]
    assert not any(is_admissible(mk, phi) for phi in [math.nan, math.inf, -math.inf])
    assert not is_admissible([1.0 + 0j], math.nan)
