"""Numeric kernel: op contracts, oracle agreement, and gradient checks."""

import numpy as np
import pytest

from omnipipe.errors import ContractError, ShapeError
from omnipipe.numkit import (
    GradCheckReport,
    Tensor,
    add_bias,
    add_bias_backward,
    conv1d,
    conv1d_backward,
    elementwise_mul,
    elementwise_mul_backward,
    gelu,
    gelu_backward,
    grad_check,
    matmul,
    matmul_backward,
    pool2x2,
    pool2x2_backward,
    sigmoid,
    sigmoid_backward,
)

from oracles import naive_conv1d, naive_matmul


class TestTensor:
    def test_shape_and_flat_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.to_json() == {"shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]}

    def test_scalar_becomes_one_element(self):
        assert Tensor(3.0).shape == (1,)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert matmul(eye, b).tolist() == [[5.0, 6.0], [7.0, 8.0]]

    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert matmul(a, b).tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_mismatch_names_both_shapes(self):
        a = np.ones((2, 3))
        b = np.ones((2, 3))
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            matmul(a, b)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8))
            got = matmul(a, b)
            assert np.max(np.abs(got - naive_matmul(a, b))) <= 1e-12


class TestConv1d:
    def test_length_formula(self):
        x = np.ones((10, 1))
        k = np.ones((2, 1, 1))
        assert conv1d(x, k, stride=2).shape == (5, 1)

    def test_hand_convolution(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        k = np.array([1.0, 1.0]).reshape(2, 1, 1)
        assert conv1d(x, k).ravel().tolist() == [3.0, 5.0, 7.0]

    def test_underflow(self):
        x = np.ones((1, 1))
        k = np.ones((2, 1, 1))
        with pytest.raises(ShapeError, match="underflow"):
            conv1d(x, k)

    def test_identity_delta_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 4))
        delta = np.eye(4).reshape(1, 4, 4)
        out = conv1d(x, delta, stride=1)
        assert np.array_equal(out, x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for stride, pad in ((1, 0), (2, 1), (3, 2)):
            x = rng.normal(size=(11, 3))
            k = rng.normal(size=(3, 3, 2))
            got = conv1d(x, k, stride, pad)
            want = naive_conv1d(x, k, stride, pad)
            assert np.allclose(got, want, atol=1e-12)


class TestPool2x2:
    def test_constant_field(self):
        out = pool2x2(np.ones((4, 4, 1)))
        assert out.shape == (2, 2, 1)
        assert np.all(out == 1.0)

    def test_27x27_pad_cols_gives_182_positions(self):
        out = pool2x2(np.ones((27, 27, 2)))
        assert out.shape == (13, 14, 2)
        assert out.shape[0] * out.shape[1] == 182
        assert np.all(out == 1.0)

    def test_height_underflow(self):
        with pytest.raises(ShapeError):
            pool2x2(np.ones((1, 4, 1)))

    def test_constant_preserved_any_shape(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = int(rng.integers(2, 12))
            w = int(rng.integers(1, 12))
            c = int(rng.integers(1, 4))
            out = pool2x2(np.full((h, w, c), 2.5))
            assert np.allclose(out, 2.5)


class TestPointwise:
    def test_gelu_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_elementwise_mul(self):
        out = elementwise_mul(np.array([2.0, 3.0]), np.array([4.0, 5.0]))
        assert out.tolist() == [8.0, 15.0]

    def test_elementwise_mul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise_mul(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0


class TestGradCheck:
    def test_quadratic(self):
        theta = np.array([3.0])
        report = grad_check(
            lambda params, _: float(params[0][0] ** 2),
            [theta],
            np.array([0.0]),
            [np.array([2.0 * theta[0]])],
        )
        assert isinstance(report, GradCheckReport)
        assert report.passed
        assert report.max_relative_error < 1e-6

    def test_linear_layer(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))

        def loss(params, xin):
            return 0.5 * float(np.sum(matmul(xin, params[0]) ** 2))

        w = rng.normal(size=(3, 2))
        _, gw = matmul_backward(x, w, matmul(x, w))
        report = grad_check(loss, [w], x, [gw], eps=1e-5, tol=1e-4)
        assert report.passed

    def test_vector_loss_rejected(self):
        with pytest.raises(ContractError, match="scalar"):
            grad_check(
                lambda params, _: np.array([1.0, 2.0]),
                [np.array([1.0])],
                np.array([0.0]),
                [np.array([0.0])],
            )

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ContractError):
            grad_check(
                lambda p, x: 0.0, [np.array([1.0])], np.array([0.0]), [np.array([0.0])], eps=0.0
            )

    def test_wrong_gradient_detected(self):
        theta = np.array([2.0])
        report = grad_check(
            lambda params, _: float(params[0][0] ** 2),
            [theta],
            np.array([0.0]),
            [np.array([3.0 * theta[0]])],
        )
        assert not report.passed

    def test_loss_only_probes_two_per_entry(self):
        calls = []

        def loss(params, _):
            calls.append([p.copy() for p in params])
            return float(sum(np.sum(p**2) for p in params))

        params = [np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.25, -1.5, 2.0])]
        before = [p.copy() for p in params]
        grads = [2.0 * p for p in params]
        report = grad_check(loss, params, np.array([0.0]), grads)
        assert report.passed
        assert len(calls) == 2 * sum(p.size for p in params)
        # each probe moves exactly one entry, and the caller's arrays are untouched
        for probed in calls:
            assert sum(int(np.sum(a != b)) for a, b in zip(probed, before)) == 1
        assert all(np.array_equal(p, b) for p, b in zip(params, before))

    def test_gradient_count_and_shapes_checked(self):
        with pytest.raises(ContractError, match="gradients"):
            grad_check(lambda p, x: 0.0, [np.array([1.0])], np.array([0.0]), [])
        with pytest.raises(ContractError, match="shape"):
            grad_check(lambda p, x: 0.0, [np.array([1.0])], np.array([0.0]), [np.array([1.0, 2.0])])


def _op_gradcheck(forward, backward_to_grads, param_shapes, seed):
    """Check one kernel op by treating each of its arrays as a parameter."""
    rng = np.random.default_rng(seed)
    params = [rng.normal(size=s) for s in param_shapes]

    def loss(plist, _):
        return 0.5 * float(np.sum(forward(plist) ** 2))

    grads = backward_to_grads(params, forward(params))
    return grad_check(loss, params, np.array([0.0]), grads, eps=1e-5, tol=1e-4)


@pytest.mark.parametrize("seed", range(20))
def test_every_op_backward_over_seeds(seed):
    reports = []
    reports.append(
        _op_gradcheck(
            lambda p: matmul(p[0], p[1]),
            lambda p, out: list(matmul_backward(p[0], p[1], out)),
            [(4, 3), (3, 2)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: conv1d(p[0], p[1], 2, 1),
            lambda p, out: list(conv1d_backward(p[0], p[1], 2, 1, out)),
            [(7, 2), (3, 2, 2)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: pool2x2(p[0]),
            lambda p, out: [pool2x2_backward(p[0], out)],
            [(5, 5, 2)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: gelu(p[0]),
            lambda p, out: [gelu_backward(p[0], out)],
            [(4, 3)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: sigmoid(p[0]),
            lambda p, out: [sigmoid_backward(sigmoid(p[0]), out)],
            [(4, 3)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: elementwise_mul(p[0], p[1]),
            lambda p, out: list(elementwise_mul_backward(p[0], p[1], out)),
            [(4, 3), (4, 3)],
            seed,
        )
    )
    reports.append(
        _op_gradcheck(
            lambda p: add_bias(p[0], p[1]),
            lambda p, out: [out, add_bias_backward(out)],
            [(4, 3), (3,)],
            seed,
        )
    )
    for report in reports:
        assert report.passed, report
