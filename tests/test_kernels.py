"""Tests for the numpy kernels behind the tape ops and Adam."""

import numpy as np
import pytest

from episampler import kernels


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

    def test_softmax_xent_probabilities_normalize(self):
        rng = _rng()
        logits = rng.standard_normal((10, 5)) * 30
        labels = rng.integers(0, 5, size=10).astype(np.int64)
        loss, probs = kernels.softmax_xent(logits, labels)
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

