from hypothesis import given, settings, strategies as st

from conftest import small_shapes
from trinomial_orbits import TrinomialShape
from trinomial_orbits.intlinalg import (
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from trinomial_orbits.shapes import torus_lattice, torus_smith


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def is_smith(D):
    m, n = len(D), len(D[0]) if D else 0
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j and D[i][j]:
                return False
    for a, b in zip(diag, diag[1:]):
        if a < 0 or (a == 0 and b != 0) or (a and b and b % a):
            return False
    return True


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestSmith:
    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_uav_equals_d_and_unimodular(self, A):
        D, U, V, _ = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert is_smith(D)
        assert det(U) in (1, -1)
        assert det(V) in (1, -1)

    def test_known_form(self):
        D, _, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [D[i][i] for i in range(3)] == [2, 2, 156]

    def test_dense_matrices_terminate_fast(self):
        # subtraction-only pivoting used to blow up on matrices like this
        import random

        rng = random.Random(123)
        for _ in range(40):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            A = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(m)]
            D, U, V, U_inv = smith_normal_form(A)
            assert mat_mul(mat_mul(U, A), V) == D
            assert is_smith(D)
            assert mat_mul(U, U_inv) == mat_mul(U_inv, U) == identity(m)

    def test_invariant_factors_divide(self):
        D, _, _, _ = smith_normal_form([[2, 0], [0, 4]])
        assert [D[0][0], D[1][1]] == [2, 4]

    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_unimodular_inverse(self, A):
        # U_inv comes from the elimination's own row steps, not a second solve
        _, U, _, U_inv = smith_normal_form(A)
        assert mat_mul(U, U_inv) == mat_mul(U_inv, U) == identity(len(U))


class TestKernel:
    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_vectors_annihilate(self, A):
        for v in kernel_basis(A):
            assert all(x == 0 for x in mat_vec(A, v))

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_is_saturated(self, A):
        basis = kernel_basis(A)
        if basis:
            D, _, _, _ = smith_normal_form(basis)
            assert all(D[i][i] == 1 for i in range(len(D)))

    def test_rank_nullity(self):
        A = [[1, 2, 3], [2, 4, 6]]  # rank 1
        assert len(kernel_basis(A)) == 2


class TestSmithCache:
    """The Smith forms of the torus lattice at a coordinate set are a fact
    of the shape, kept on it."""

    @given(small_shapes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cached_equals_uncached(self, shape, data):
        coords = tuple(data.draw(st.lists(st.integers(0, shape.n - 1), unique=True)))
        basis = torus_lattice(shape).vectors
        rows = [[vec[i] for vec in basis] for i in coords]
        uncached = tuple(tuple(map(tuple, M)) for M in smith_normal_form(rows))
        assert torus_smith(shape, coords) == uncached

    def test_cached_forms_cannot_change(self):
        shape = TrinomialShape(((1, 2, 2), (3,), (3,)))
        forms = torus_smith(shape, (0, 1, 3))
        assert len(forms) == 4  # D, U, V and U_inv
        assert all(isinstance(M, tuple) for M in forms)
        assert all(isinstance(row, tuple) for M in forms for row in M)
        assert torus_smith(shape, (0, 1, 3)) is forms
        assert torus_smith(shape, (0, 1)) is not forms
