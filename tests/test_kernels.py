"""Tests for the numpy kernels behind the tape ops and Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from episampler import kernels

# Entries are 0 or at least 1e-100 in size, so no square underflows and a
# rounding error stays relative to the norms.
ENTRIES = st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


def _rng():
    return np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))


class TestNumpyKernels:
    def test_sqdist_matches_direct_formula(self):
        rng = _rng()
        x = rng.standard_normal((7, 4))
        y = rng.standard_normal((3, 4))
        out = kernels.pairwise_sqdist(x, y)
        for i in range(7):
            for j in range(3):
                assert out[i, j] == pytest.approx(((x[i] - y[j]) ** 2).sum(), rel=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_sqdist_is_within_a_norm_scaled_bound_of_the_difference_formula(self, data):
        """Every entry is >= 0 and, with d features, within
        ``4 * (d + 2) * eps * (|x_i|^2 + |y_j|^2)`` of
        ``sum((x_i - y_j)**2)`` computed in float64: about
        ``(2d + 2) * eps`` of the norms for the kernel's rounding and
        ``(2d + 6) * eps`` for the reference's. The rows may share an
        offset of 1e3, so that the norms dwarf the distances, and may
        repeat each other, so that a distance is exactly 0."""
        lead = data.draw(st.sampled_from([(), (1,), (3,)]))
        m, n, d = (data.draw(st.integers(1, 6)) for _ in range(3))
        x = data.draw(hnp.arrays(np.float64, lead + (m, d), elements=ENTRIES))
        y = data.draw(hnp.arrays(np.float64, lead + (n, d), elements=ENTRIES))
        offset = data.draw(st.sampled_from([0.0, 1e3]))
        x, y = x + offset, y + offset
        for _ in range(data.draw(st.integers(0, 3))):
            # Row i of x copied into row j of y, or row i into row j of x.
            i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, max(m, n) - 1))
            if data.draw(st.booleans()):
                y[..., j % n, :] = x[..., i, :]
            else:
                x[..., j % m, :] = x[..., i, :]
        out = kernels.pairwise_sqdist(x, y)
        diff = x[..., :, None, :] - y[..., None, :, :]
        reference = (diff * diff).sum(axis=-1)
        norms = (x * x).sum(axis=-1)[..., :, None] + (y * y).sum(axis=-1)[..., None, :]
        assert out.shape == lead + (m, n)
        assert np.all(out >= 0.0)
        assert np.all(np.abs(out - reference) <= 4 * (d + 2) * np.finfo(np.float64).eps * norms)

    def test_softmax_xent_probabilities_normalize(self):
        rng = _rng()
        logits = rng.standard_normal((10, 5)) * 30
        labels = rng.integers(0, 5, size=10).astype(np.int64)
        loss, e = kernels.softmax_xent(logits, labels)
        np.testing.assert_array_equal(e, np.exp(logits - logits.max(axis=1, keepdims=True)))
        probs = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(loss >= 0)

    def test_adam_matches_hand_formula(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        m = np.array([0.1, 0.0])
        v = np.array([0.2, 0.0])
        p2, m2, v2 = kernels.adam_update(p, g, m, v, 3, 0.01, 0.9, 0.999, 1e-8)
        m_ref = 0.9 * m + 0.1 * g
        v_ref = 0.999 * v + 0.001 * g * g
        step = 0.01 * (m_ref / (1 - 0.9**3)) / (np.sqrt(v_ref / (1 - 0.999**3)) + 1e-8)
        np.testing.assert_allclose(p2, p - step, atol=1e-15)
        np.testing.assert_allclose(m2, m_ref, atol=1e-15)
        np.testing.assert_allclose(v2, v_ref, atol=1e-15)

