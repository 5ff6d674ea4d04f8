import pytest
from hypothesis import assume, strategies as st

from trinomial_orbits import PrimeField, QQ, derivations, family_of, validate_shape

# the recurring cast of shapes
SHAPE_A = [[1, 2], [3], [3]]        # x*y^2 + z^3 + s^3
SHAPE_B = [[2], [3], [3]]           # y^2 + z^3 + s^3 (rigid)
SHAPE_C = [[1, 1, 2], [3], [3]]     # x1*x2*y^2 + z^3 + s^3
SHAPE_D = [[1, 2, 2], [3], [3]]     # x*y1^2*y2^2 + z^3 + s^3
SHAPE_E = [[], [1, 3, 3], [3, 3]]   # 1 + x*y1^3*y2^3 + z1^3*z2^3
SHAPE_E_BASE = [[], [3, 3], [3, 3]]
SHAPE_H2 = [[2, 2], [2, 2], [5]]


@pytest.fixture(autouse=True)
def fresh_catalog_cache():
    """Start every test from an empty derivation catalog cache, so that no
    test sees derivations, series or group laws another test left behind."""
    derivations._catalog.cache_clear()


@pytest.fixture
def shape_a():
    return validate_shape(SHAPE_A)


@pytest.fixture
def shape_b():
    return validate_shape(SHAPE_B)


@pytest.fixture
def shape_c():
    return validate_shape(SHAPE_C)


@pytest.fixture
def shape_d():
    return validate_shape(SHAPE_D)


@pytest.fixture
def shape_e():
    return validate_shape(SHAPE_E)


@pytest.fixture
def shape_h2():
    return validate_shape(SHAPE_H2)


@pytest.fixture
def f7():
    return PrimeField(7)


@pytest.fixture
def f3():
    return PrimeField(3)


@pytest.fixture
def qq():
    return QQ


@st.composite
def small_shapes(draw):
    """Nondegenerate shapes, up to two variables a group (group 0 may be
    empty: the free term), exponents 1-5."""
    exps = st.integers(1, 5)
    groups = [
        draw(st.lists(exps, min_size=0, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
    ]
    shape = validate_shape(groups)
    assume(shape.degenerate_group() is None)
    return shape


@st.composite
def power_one_shapes(draw):
    """The F1 shapes among small_shapes, drawn directly: exactly one
    exponent-1 variable x, next to one exponent 2-5 in its group.  Filtering
    small_shapes for F1 discards most draws, enough to fail Hypothesis's
    filter_too_much health check on some runs."""
    exps = st.integers(2, 5)
    groups = [
        draw(st.lists(exps, min_size=0, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
    ]
    pair = [1, draw(exps)]
    groups[draw(st.integers(0, 2))] = pair if draw(st.booleans()) else pair[::-1]
    shape = validate_shape(groups)
    assume(family_of(shape).kind == "F1")  # a flexible H-type match wins over F1
    return shape
