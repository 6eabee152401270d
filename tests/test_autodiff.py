"""Tests for the reverse-mode autodiff engine.

Gradient correctness is checked against central finite differences, which
are the independent oracle throughout.
"""

import math

import numpy as np
import pytest

from episampler import autodiff as ad
from gradcheck import grad_check


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


class TestForwardOps:
    def test_relu_definition(self):
        out = ad.relu(ad.tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_matmul_identity(self):
        rng = _rng(1)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(ad.tensor(np.eye(3)), ad.tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_xent_uniform_logits(self):
        logits = ad.tensor(np.zeros((1, 5)))
        loss = ad.softmax_cross_entropy(logits, np.array([2]))
        assert loss.shape == (1, 1)
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)

    def test_sqdist_values(self):
        x = ad.tensor([[0.0, 0.0], [1.0, 1.0]])
        y = ad.tensor([[0.0, 0.0], [3.0, 4.0]])
        out = ad.sqdist(x, y)
        np.testing.assert_allclose(out.data, [[0.0, 25.0], [2.0, 13.0]])

    def test_mean_sum_dot(self):
        t = ad.tensor([1.0, 2.0, 3.0])
        assert ad.sum(t).item() == 6.0
        assert ad.mean(t).item() == 2.0
        assert ad.sum(ad.mul(t, ad.tensor([1.0, 0.0, 1.0]))).item() == 4.0

    def test_shape_mismatch_reports_op_and_shapes(self):
        with pytest.raises(ad.ShapeMismatchError) as exc:
            ad.add(ad.tensor([1.0, 2.0]), ad.tensor([1.0, 2.0, 3.0]))
        assert "add" in str(exc.value)
        assert "(2,)" in str(exc.value) and "(3,)" in str(exc.value)

    def test_bias_row_must_match_the_leading_axis(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.add(ad.tensor(np.zeros((3, 2, 4))), ad.tensor(np.zeros((2, 1, 4))))

    def test_tile_copies_along_a_new_leading_axis(self):
        a = ad.tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(ad.tile(a, 3).data, [[[1.0, 2.0]]] * 3)

    def test_log_domain_error(self):
        with pytest.raises(ad.DomainError):
            ad.log(ad.tensor([1.0, 0.0]))

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("tb", [False, True])
    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_outer_product_has_the_bytes_of_np_matmul(self, lead, ta, tb):
        # A contracted dimension of 1 takes the broadcast path; every pair
        # of these values meets once, so 0 * inf, inf * -0.0, NaN, overflow
        # and products that round into the subnormals all occur.
        values = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308,
            1e-160, -3e-170, 1.0, -2.5, 1e300, -1e300,
        ])
        rng = _rng(2)
        col, row = (
            np.stack([rng.permutation(values) for _ in range(math.prod(lead))]).reshape(lead + shape)
            for shape in ((-1, 1), (1, -1))
        )
        a = col.swapaxes(-1, -2).copy() if ta else col
        b = row.swapaxes(-1, -2).copy() if tb else row
        with np.errstate(all="ignore"):
            out = ad.matmul(ad.tensor(a), ad.tensor(b), ta=ta, tb=tb).data
            expected = np.matmul(col, row)
        assert out.shape == expected.shape == lead + (values.size, values.size)
        assert out.tobytes() == expected.tobytes()


class TestBackward:
    def test_square_gradient(self):
        x = ad.tensor(3.0, requires_grad=True)
        y = ad.mul(x, x)
        (g,) = ad.grad(y, [x])
        assert g.item() == pytest.approx(6.0)

    def test_second_derivative_of_cube(self):
        x = ad.tensor(2.0, requires_grad=True)
        y = ad.mul(ad.mul(x, x), x)
        (g1,) = ad.grad(y, [x], create_graph=True)
        (g2,) = ad.grad(g1, [x])
        assert g2.item() == pytest.approx(12.0)

    def test_gradient_through_inner_gradient_step(self):
        # f(t) = (t - a*g)^2 with g = d(t^2)/dt = 2t, so
        # f = ((1 - 2a) t)^2 and df/dt = 2 (1 - 2a)^2 t.
        alpha = 0.1
        theta = ad.tensor(1.0, requires_grad=True)
        inner = ad.mul(theta, theta)
        (g_inner,) = ad.grad(inner, [theta], create_graph=True)
        adapted = ad.sub(theta, ad.smul(alpha, g_inner))
        outer = ad.mul(adapted, adapted)
        (g,) = ad.grad(outer, [theta])
        assert g.item() == pytest.approx(1.28, abs=1e-12)

        def f(t):
            i = ad.mul(t, t)
            (g,) = ad.grad(i, [t], create_graph=True)
            a = ad.sub(t, ad.smul(alpha, g))
            return ad.mul(a, a)

        assert grad_check(f, [ad.tensor(1.0, requires_grad=True)]) < 1e-8

    def test_non_scalar_backward_rejected(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.GraphError):
            ad.grad(ad.relu(x), [x])

    def test_unused_input(self):
        x = ad.tensor(1.0, requires_grad=True)
        z = ad.tensor(1.0, requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ad.GraphError):
            ad.grad(y, [z])
        (g,) = ad.grad(y, [z], allow_unused=True)
        assert g.item() == 0.0

    def test_accumulation_over_shared_input(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        y = ad.add(ad.sum(ad.mul(x, x)), ad.sum(x))
        (g,) = ad.grad(y, [x])
        np.testing.assert_allclose(g.data, [3.0, 5.0])

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_contributions_summed_from_latest_consumer(self, create_graph):
        # 1 + 2**-53 rounds to 1, so the sum's bits show its order: the
        # sweep adds C's and B's contributions first, then A's.
        x = ad.tensor(3.0, requires_grad=True)
        a = ad.smul(1.0, x)
        b = ad.smul(2.0**-53, x)
        c = ad.smul(2.0**-53, x)
        y = ad.add(ad.add(a, b), c)
        (g,) = ad.grad(y, [x], create_graph=create_graph)
        assert g.item() == 1.0 + 2.0**-52


class TestGradCheck:
    def test_sum_of_squares(self):
        rng = _rng(2)
        x = ad.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        err = grad_check(lambda t: ad.sum(ad.mul(t, t)), [x])
        assert err < 1e-5

    def test_constant_function(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda t: ad.tensor(5.0), [x])
        assert err == 0.0

    def test_epsilon_range_enforced(self):
        x = ad.tensor(1.0, requires_grad=True)
        with pytest.raises(ad.DomainError):
            grad_check(lambda t: ad.mul(t, t), [x], epsilon=1e-2)

    def test_maml_toy_two_parameters(self):
        # One adaptation step on a 2-parameter linear model, then a query
        # loss; the finite-difference oracle runs through the whole path.
        xs = ad.tensor([0.7, -0.2])
        xq = ad.tensor([-0.4, 0.9])
        alpha = 0.05

        def f(w):
            pred_s = ad.sum(ad.mul(w, xs))
            err_s = ad.sub(pred_s, ad.tensor(0.3))
            inner = ad.mul(err_s, err_s)
            (g,) = ad.grad(inner, [w], create_graph=True)
            w2 = ad.sub(w, ad.smul(alpha, g))
            pred_q = ad.sum(ad.mul(w2, xq))
            err_q = ad.sub(pred_q, ad.tensor(-0.1))
            return ad.mul(err_q, err_q)

        w0 = ad.tensor([0.2, -0.5], requires_grad=True)
        assert grad_check(f, [w0]) < 1e-4


def _chain(x):
    """c = 3x, a = x^2, b = exp(a) and y = a b + b + c = (a + 1) e^a + 3x;
    c is off every path from y to a or b."""
    c = ad.smul(3.0, x)
    a = ad.mul(x, x)
    b = ad.exp(a)
    return a, b, ad.add(ad.add(ad.mul(a, b), b), c)


class TestPrunedBackward:
    def test_input_that_is_an_ancestor_of_another_input(self):
        # dy/da is total (through b too); dy/db holds a fixed.
        a, b, y = _chain(ad.tensor(1.5, requires_grad=True))
        ea = math.exp(2.25)
        ga, gb = ad.grad(y, [a, b])
        assert ga.item() == pytest.approx(ea * 4.25, rel=1e-14)
        assert gb.item() == pytest.approx(3.25, rel=1e-14)
        gb2, ga2 = ad.grad(y, [b, a])
        assert (ga2.item(), gb2.item()) == (ga.item(), gb.item())

    def test_leaf_and_interior_inputs_together(self):
        x = ad.tensor(1.5, requires_grad=True)
        a, b, y = _chain(x)
        gx, gb = ad.grad(y, [x, b])
        assert gx.item() == pytest.approx(math.exp(2.25) * 4.25 * 3.0 + 3.0, rel=1e-14)
        assert gb.item() == pytest.approx(3.25, rel=1e-14)
        assert grad_check(lambda t: _chain(t)[2], [ad.tensor(1.5, requires_grad=True)]) < 1e-8

    def test_interior_tensor_off_the_path(self):
        x = ad.tensor(1.5, requires_grad=True)
        before = ad.smul(2.0, x)  # recorded before y's inputs, never used
        a, b, y = _chain(x)
        after = ad.mul(a, a)  # consumes a, but y does not read it
        for off in (before, after):
            with pytest.raises(ad.GraphError):
                ad.grad(y, [off])
            ga, g_off = ad.grad(y, [a, off], allow_unused=True)
            assert ga.item() == pytest.approx(math.exp(2.25) * 4.25, rel=1e-14)
            assert g_off.item() == 0.0

    def test_inputs_as_a_generator(self):
        a, b, y = _chain(ad.tensor(1.5, requires_grad=True))
        expected = [g.item() for g in ad.grad(y, [a, b])]
        assert [g.item() for g in ad.grad(y, (t for t in (a, b)))] == expected

    def test_pruning_keeps_the_bits_of_each_gradient(self):
        # Asking for one tensor walks less of the tape than asking for all,
        # but each gradient gets the same contributions in the same order.
        rng = _rng(6)
        x = ad.tensor(rng.normal(size=(5, 3)))
        w = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = ad.tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = ad.relu(ad.matmul(x, w))
        z = ad.add(ad.matmul(h, v), ad.exp(ad.matmul(ad.log(ad.exp(h)), v)))
        loss = ad.mean(ad.softmax_cross_entropy(z, rng.integers(0, 2, size=5)))
        tensors = [w, v, h, z]
        for create_graph in (False, True):
            full = ad.grad(loss, tensors, create_graph=create_graph)
            for t, g_full in zip(tensors, full):
                (g,) = ad.grad(loss, [t], create_graph=create_graph)
                assert g.data.tobytes() == g_full.data.tobytes()


def _random_case(rng, case):
    """One randomized scalar-valued composition exercising a single op."""
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    d = int(rng.integers(1, 5))
    if case == "add":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.add(x, y), ad.add(x, y))), [a, b]
    if case == "sub_scalar":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        s = ad.tensor(rng.normal(), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.sub(x, y), ad.sub(x, y))), [a, s]
    if case == "mul":
        a = ad.tensor(rng.normal(size=(m,)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(m,)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(x, y)), [a, b]
    if case == "mul_scalar_broadcast":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        s = ad.tensor(rng.normal(), requires_grad=True)
        return lambda x, y: ad.mean(ad.mul(ad.mul(x, y), x)), [a, s]
    if case == "smul":
        c = float(rng.normal())
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        return lambda x: ad.sum(ad.smul(c, ad.mul(x, x))), [a]
    if case == "matmul":
        a = ad.tensor(rng.normal(size=(m, d)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(d, n)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.matmul(x, y), ad.matmul(x, y))), [a, b]
    if case == "matmul_transposed":
        a = ad.tensor(rng.normal(size=(d, m)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(n, d)), requires_grad=True)
        return lambda x, y: ad.sum(ad.matmul(x, y, ta=True, tb=True)), [a, b]
    if case == "relu":
        a = ad.tensor(rng.normal(size=(m, n)) + 0.05, requires_grad=True)
        return lambda x: ad.sum(ad.mul(ad.relu(x), ad.relu(x))), [a]
    if case == "exp":
        a = ad.tensor(rng.normal(size=(m,)), requires_grad=True)
        return lambda x: ad.mean(ad.exp(x)), [a]
    if case == "log":
        a = ad.tensor(rng.uniform(0.5, 3.0, size=(m,)), requires_grad=True)
        return lambda x: ad.sum(ad.log(x)), [a]
    if case == "mean":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        return lambda x: ad.mean(ad.mul(x, x)), [a]
    if case == "sqdist":
        a = ad.tensor(rng.normal(size=(m, d)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(n, d)), requires_grad=True)
        return lambda x, y: ad.mean(ad.sqdist(x, y)), [a, b]
    if case == "add_bias_row":
        a = ad.tensor(rng.normal(size=(m + 1, n)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(1, n)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.add(x, y), ad.add(y, x))), [a, b]
    if case == "matmul_3d":
        a = ad.tensor(rng.normal(size=(2, m, d)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(2, n, d)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.matmul(x, y, tb=True), ad.matmul(x, y, tb=True))), [a, b]
    if case == "reshape":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(n * m, 1)))
        return lambda x: ad.sum(ad.matmul(ad.reshape(ad.mul(x, x), (1, m * n)), w)), [a]
    if case == "tile":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(3, m, n)))
        return lambda x, y: ad.sum(ad.mul(ad.tile(ad.mul(x, y), 3), w)), [a, b]
    if case == "add_bias_row_3d":
        a = ad.tensor(rng.normal(size=(2, m + 1, n)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(2, 1, n)), requires_grad=True)
        return lambda x, y: ad.sum(ad.mul(ad.add(x, y), ad.add(y, x))), [a, b]
    if case == "mean_rows":
        a = ad.tensor(rng.normal(size=(m, n)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(m,)))
        return lambda x: ad.sum(ad.mul(ad.mean(ad.mul(x, x), rows=True), w)), [a]
    if case == "sqdist_3d":
        a = ad.tensor(rng.normal(size=(2, m, d)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(2, n, d)), requires_grad=True)
        return lambda x, y: ad.mean(ad.mul(ad.sqdist(x, y), ad.sqdist(x, y))), [a, b]
    if case == "softmax_xent":
        a = ad.tensor(rng.normal(size=(m, n + 1)), requires_grad=True)
        labels = rng.integers(0, n + 1, size=m)
        return lambda x: ad.mean(ad.softmax_cross_entropy(x, labels)), [a]
    raise AssertionError(case)


CASES = [
    "add",
    "sub_scalar",
    "mul",
    "mul_scalar_broadcast",
    "smul",
    "matmul",
    "matmul_transposed",
    "relu",
    "exp",
    "log",
    "mean",
    "sqdist",
    "softmax_xent",
    "add_bias_row",
    "matmul_3d",
    "reshape",
    "tile",
    "add_bias_row_3d",
    "mean_rows",
    "sqdist_3d",
]


class TestGradientProperties:
    def test_all_ops_match_finite_differences(self):
        # >= 100 randomized shape/value cases across the whole op set.
        rng = _rng(3)
        checked = 0
        for rep in range(8):
            for case in CASES:
                f, inputs = _random_case(rng, case)
                err = grad_check(f, inputs)
                assert err < 1e-4, f"{case} rep {rep}: error {err}"
                checked += 1
        assert checked >= 100

    def test_second_order_matches_finite_differences(self):
        # Finite differences of the analytic first gradient vs the analytic
        # second gradient, on the inner-gradient-step toy.
        alpha = 0.1

        def first_grad(value):
            theta = ad.tensor(value, requires_grad=True)
            inner = ad.mul(theta, theta)
            (g,) = ad.grad(inner, [theta], create_graph=True)
            adapted = ad.sub(theta, ad.smul(alpha, g))
            outer = ad.mul(adapted, adapted)
            (g_outer,) = ad.grad(outer, [theta], create_graph=True)
            return theta, g_outer

        theta, g_outer = first_grad(1.0)
        (second,) = ad.grad(g_outer, [theta])
        eps = 1e-5
        numeric = (first_grad(1.0 + eps)[1].item() - first_grad(1.0 - eps)[1].item()) / (2 * eps)
        assert abs(second.item() - numeric) / max(1.0, abs(second.item())) < 1e-3
        # analytic: d2f/dt2 = 2 (1 - 2 alpha)^2
        assert second.item() == pytest.approx(2 * (1 - 2 * alpha) ** 2, abs=1e-12)

    def test_second_order_through_batched_ops(self):
        # The first gradient is built with create_graph through tile, the
        # (B, 1, n) bias row, 3-D matmul and sqdist, reshape and row means,
        # so the vjps themselves must be differentiable.
        rng = _rng(5)
        x = ad.tensor(rng.normal(size=(2, 3, 3)))
        c = ad.tensor(rng.normal(size=(2, 2, 4)))

        def f(w, b):
            h = ad.add(ad.matmul(x, ad.tile(w, 2)), ad.tile(b, 2))
            d = ad.sqdist(h, c)
            scores = ad.mean(ad.reshape(ad.add(d, ad.matmul(h, c, tb=True)), (3, 4)), rows=True)
            inner = ad.sum(ad.mul(scores, scores))
            gw, gb = ad.grad(inner, [w, b], create_graph=True)
            return ad.add(ad.sum(ad.mul(gw, gw)), ad.sum(ad.mul(gb, gb)))

        w = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(1, 4)), requires_grad=True)
        assert grad_check(f, [w, b]) < 1e-4

    def test_forward_replay_is_bit_identical(self):
        rng = _rng(4)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=6)

        def run():
            t = ad.tensor(x, requires_grad=True)
            h = ad.relu(ad.matmul(t, ad.tensor(w)))
            loss = ad.mean(ad.softmax_cross_entropy(h, labels))
            (g,) = ad.grad(loss, [t])
            return loss.item(), g.data.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_no_grad_blocks_recording(self):
        x = ad.tensor(2.0, requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y.node is None

    def test_is_grad_enabled_follows_the_context(self):
        assert ad.is_grad_enabled()
        with ad.no_grad():
            assert not ad.is_grad_enabled()
            with ad.enable_grad():
                assert ad.is_grad_enabled()
            assert not ad.is_grad_enabled()
        assert ad.is_grad_enabled()


class TestSoftmaxCrossEntropyVjp:
    """The vjp computed on arrays (no recording) against the one built from
    ops (recording): a first-order inner loop relies on their bits agreeing."""

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    @pytest.mark.parametrize("seed", range(4))
    def test_both_modes_give_the_same_bits(self, seed, scale):
        rng = _rng(seed)
        m, n = 48, 5
        logits = scale * rng.normal(size=(m, n))
        labels = rng.integers(0, n, size=m)
        upstream = rng.normal(size=(m, 1))

        def vjp(create_graph):
            x = ad.tensor(logits, requires_grad=True)
            loss = ad.sum(ad.mul(ad.softmax_cross_entropy(x, labels), ad.tensor(upstream)))
            (g,) = ad.grad(loss, [x], create_graph=create_graph)
            return g.data

        plain, recorded = vjp(False), vjp(True)
        np.testing.assert_array_equal(plain, recorded)
        # Against the closed form (softmax - onehot) * g, relative to the
        # largest entry: entries near zero carry cancellation noise.
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        onehot = np.eye(n)[labels]
        closed = (probs - onehot) * upstream
        np.testing.assert_allclose(plain, closed, rtol=0, atol=1e-14 * np.abs(closed).max())
