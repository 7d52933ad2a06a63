import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.numeric import _within, as_vector, norm


class TestAsVector:
    def test_passthrough(self):
        v = as_vector([1.0, 2.0, 3.0])
        assert v.dtype == np.float64
        assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_int_input_becomes_float(self):
        assert as_vector([1, 2]).dtype == np.float64

    def test_dim_check(self):
        as_vector([1.0, 2.0], dim=2)
        with pytest.raises(ValueError, match="dim-mismatch"):
            as_vector([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive dimension"):
            as_vector([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([np.inf, 0.0])


class TestInnerNorm:
    def test_norm_last_axis(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert_allclose(norm(X), [5.0, 0.0])
        assert norm(np.array([3.0, 4.0])) == 5.0

    @pytest.mark.parametrize("shape", [(1,), (5,), (20,), (130,), (7, 3), (64, 20)])
    def test_norm_equals_linalg_norm_bitwise(self, shape):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape)
        assert_array_equal(norm(x), np.linalg.norm(x, axis=-1))


    @pytest.mark.parametrize("d", [1, 5, 7, 8, 9, 20, 127, 128, 129, 2000])
    @pytest.mark.parametrize("rows", [1, 2, 39, 401])
    def test_row_norms_are_one_point_norms_bitwise(self, d, rows):
        # a run measures a block of iterates at once; its traces rest on this identity
        rng = np.random.default_rng(d * 1000 + rows)
        X = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-150, 150, size=(rows, 1))
        got = norm(X)
        assert got.tobytes() == np.array([norm(x) for x in X]).tobytes()


class TestWithin:
    def test_slack_grows_with_the_scale(self):
        assert _within(1e-9) and not _within(2e-9)
        assert _within(1e-4, 1e8) and not _within(1e-3, 1e8)

    def test_an_infinite_scale_never_passes(self):
        # an overflowed scale would otherwise admit any excess, inf included
        assert not _within(np.inf, np.inf)
        assert not _within(0.0, np.inf)
        scales = np.array([1.0, np.inf, np.nan])
        assert_array_equal(_within(np.zeros(3), scales), [True, False, False])
