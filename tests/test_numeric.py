import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.numeric import Tolerance, as_vector, norm


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.abs_eps == 1e-9
        assert t.rel_eps == 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=-1.0)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=0.0, rel_eps=0.0)

    def test_one_zero_is_fine(self):
        assert Tolerance(abs_eps=0.0, rel_eps=1e-6).rel_eps == 1e-6


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

