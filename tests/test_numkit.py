"""Numeric kernel: op contracts, oracle agreement, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnipipe.errors import ContractError, ShapeError
from omnipipe.numkit import (
    GradCheckReport,
    Tensor,
    gelu,
    gelu_backward,
    grad_check,
    matmul,
    matmul_backward,
    sigmoid,
    sigmoid_backward,
)

from oracles import (
    gelu_backward_pow,
    gelu_pow,
    grad_check_loop,
    naive_matmul,
    per_probe,
    sigmoid_masked,
)


class TestTensor:
    def test_shape_and_flat_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.array.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]

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

    def test_probe_axis_gives_each_probe_its_2d_product(self):
        rng = np.random.default_rng(12)
        a, a3 = rng.normal(size=(5, 4)), rng.normal(size=(3, 5, 4))
        b, b3 = rng.normal(size=(4, 2)), rng.normal(size=(3, 4, 2))
        for lhs, rhs in ((a, b3), (a3, b), (a3, b3)):
            got = matmul(lhs, rhs)
            assert got.shape == (3, 5, 2)
            for k in range(3):
                one = matmul(lhs[k] if lhs.ndim == 3 else lhs, rhs[k] if rhs.ndim == 3 else rhs)
                assert got[k].tobytes() == one.tobytes()

    def test_probe_axes_and_ranks_checked(self):
        with pytest.raises(ShapeError, match="probe axes differ"):
            matmul(np.ones((2, 3, 4)), np.ones((3, 4, 5)))
        for bad in (np.ones(4), np.ones((1, 2, 4, 4))):
            with pytest.raises(ShapeError, match="must be 2 or 3-dimensional"):
                matmul(bad, np.ones((4, 2)))
            with pytest.raises(ShapeError, match="must be 2 or 3-dimensional"):
                matmul(np.ones((2, 4)), bad)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8))
            got = matmul(a, b)
            assert np.max(np.abs(got - naive_matmul(a, b))) <= 1e-12


class TestPointwise:
    def test_gelu_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_gelu_backward_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"^gelu upstream gradient shape \(3,\) != input \(2,\)$"):
            gelu_backward(np.zeros(2), np.zeros(3))

    def test_sigmoid_backward_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"sigmoid upstream gradient shape \(2, 1\) != output"):
            sigmoid_backward(np.zeros((1, 2)), np.zeros((2, 1)))


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0])
_FINITE = st.floats(-1e150, 1e150, allow_nan=False)
_ALL_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _arrays(elements, max_size=64):
    return st.lists(elements, min_size=1, max_size=max_size).map(np.array)


class TestFastPointwise:
    """The pointwise kernels against the formulas they replaced (oracles)."""

    @given(_arrays(st.floats(width=64)))
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_is_bit_identical_to_masked(self, x):
        x = np.concatenate([x, _SPECIALS])
        got, want = sigmoid(x), sigmoid_masked(x)
        assert got.dtype == want.dtype == np.float64
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_sigmoid_specials(self):
        out = sigmoid(_SPECIALS)
        assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and out[6:].tolist() == [1.0, 0.0]
        assert np.isnan(out[4:6]).all()
        assert np.signbit(out[4:6]).tolist() == np.signbit(_SPECIALS[4:6]).tolist()

    @given(_arrays(_FINITE))
    @settings(max_examples=300, deadline=None)
    def test_gelu_within_one_ulp_scale_of_pow(self, x):
        bound = 1e-15 * np.maximum(1.0, np.abs(x))
        with np.errstate(over="ignore"):  # both cubes overflow past 5.6e102
            assert np.all(np.abs(gelu(x) - gelu_pow(x)) <= bound)

    @given(_arrays(st.tuples(_ALL_FINITE, st.floats(-1e6, 1e6))))
    @settings(max_examples=300, deadline=None)
    def test_gelu_backward_within_bound_of_pow(self, pairs):
        # past |x| ~ 1.3e154 the pow formula is 0 * inf = NaN; the kernel
        # gives the limits, 1 for large positive x and 0 for large negative
        x, g = pairs[:, 0].copy(), pairs[:, 1].copy()
        got = gelu_backward(x, g)
        with np.errstate(over="ignore", invalid="ignore"):
            want = gelu_backward_pow(x, g)
            bound = 4e-15 * np.abs(g) * np.maximum(1.0, np.abs(x))
        assert np.isfinite(got).all()
        finite = np.isfinite(want)
        assert np.all(np.abs(got - want)[finite] <= bound[finite])
        assert got[~finite].tolist() == (g * (x > 0))[~finite].tolist()

    def test_gelu_backward_is_finite_past_the_square_overflow(self):
        x = np.array([1e155, -1e155, np.finfo(np.float64).max, -np.finfo(np.float64).max])
        assert gelu_backward(x, np.ones(4)).tolist() == [1.0, 0.0, 1.0, 0.0]
        assert gelu_backward(np.array([np.inf, -np.inf]), np.ones(2)).tolist() == [1.0, 0.0]

    def test_gelu_cube_is_two_multiplies(self):
        # inputs whose GELU moves by an ulp between numpy 2.4's pow cube and
        # x * x * x on x86-64; the forward follows the multiplies
        x = np.array([-0.8683891967525209, -0.7007948826987104, 1.519218380586328])
        inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))
        assert gelu(x).tolist() == (0.5 * x * (1.0 + np.tanh(inner))).tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_no_pointwise_kernel_writes_its_inputs(self, seed):
        rng = np.random.default_rng(seed)
        a, g = (rng.normal(scale=5.0, size=(3, 4)) for _ in range(2))
        saved = [v.copy() for v in (a, g)]
        for v in (a, g):
            v.flags.writeable = False
        gelu(a), gelu_backward(a, g), sigmoid(a), sigmoid_backward(sigmoid(a), g)
        for v, before in zip((a, g), saved):
            assert v.tobytes() == before.tobytes()


class TestGradCheck:
    def test_quadratic(self):
        theta = np.array([3.0])
        report = grad_check(
            per_probe(lambda params: float(params["theta"][0] ** 2)),
            {"theta": theta},
            {"theta": np.array([2.0 * theta[0]])},
        )
        assert isinstance(report, GradCheckReport)
        assert report.passed
        assert report.max_relative_error < 1e-6

    def test_linear_layer(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))

        def loss(params):
            return 0.5 * float(np.sum(matmul(x, params["w"]) ** 2))

        w = rng.normal(size=(3, 2))
        _, gw = matmul_backward(x, w, matmul(x, w))
        report = grad_check(per_probe(loss), {"w": w}, {"w": gw}, eps=1e-5, tol=1e-4)
        assert report.passed

    def test_wrong_loss_shape_rejected(self):
        # one entry makes two probe rows, so the loss must have shape (2,)
        for value in (1.0, np.array([1.0, 2.0, 3.0]), np.ones((2, 1))):
            with pytest.raises(ContractError, match=r"one value per probe row, shape \(2,\)"):
                grad_check(lambda params: value, {"a": np.array([1.0])}, {"a": np.array([0.0])})

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda p: 0.0, {"a": np.array([1.0])}, {"a": np.array([0.0])}, eps=0.0)

    def test_wrong_gradient_detected(self):
        theta = np.array([2.0])
        report = grad_check(
            per_probe(lambda params: float(params["theta"][0] ** 2)),
            {"theta": theta},
            {"theta": np.array([3.0 * theta[0]])},
        )
        assert not report.passed

    def test_loss_only_probes_two_per_entry(self):
        batches = []

        def loss(params):
            batches.append({n: p.copy() for n, p in params.items()})
            return sum(np.sum(p**2, axis=tuple(range(1, p.ndim))) for p in params.values())

        params = {"w": np.array([[1.0, -2.0], [0.5, 3.0]]), "b": np.array([0.25, -1.5, 2.0])}
        before = {n: p.copy() for n, p in params.items()}
        grads = {n: 2.0 * p for n, p in params.items()}
        report = grad_check(loss, params, grads)
        assert report.passed
        rows = [{n: batch[n][r] for n in batch} for batch in batches for r in range(len(batch["w"]))]
        entries = sum(p.size for p in params.values())
        assert len(rows) == 2 * entries
        # each probe row sees the same names and shapes and moves exactly one
        # entry by +eps or -eps (row 2j by +eps, row 2j + 1 by -eps), and the
        # caller's arrays are untouched
        theta = np.concatenate([p.reshape(-1) for p in before.values()])
        moves = []
        for probed in rows:
            assert [(n, p.shape) for n, p in probed.items()] == [
                (n, p.shape) for n, p in before.items()
            ]
            flat = np.concatenate([p.reshape(-1) for p in probed.values()])
            (moved,) = np.nonzero(flat != theta)
            assert moved.size == 1
            j = int(moved[0])
            assert flat[j] in (theta[j] + 1e-5, theta[j] - 1e-5)
            moves.append((j, 1 if flat[j] > theta[j] else -1))
        assert moves == [(j, sign) for j in range(entries) for sign in (1, -1)]
        assert all(np.array_equal(params[n], before[n]) for n in before)

    @pytest.mark.parametrize("loss_value", [np.inf, np.nan])
    def test_non_finite_probe_is_an_error_naming_the_entry(self, loss_value):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}

        def loss(p):
            return loss_value if p["b"][0] > 3.0 else float(np.sum(p["a"] ** 2))

        with pytest.raises(ContractError, match="entry 2 is not finite"):
            grad_check(per_probe(loss), params, {"a": 2.0 * params["a"], "b": np.zeros(1)})

    def test_huge_eps_is_an_error_without_warnings(self):
        with np.errstate(all="raise"):  # a warning the check leaked would raise
            with pytest.raises(ContractError, match="entry 0 is not finite"):
                grad_check(
                    per_probe(lambda p: float(np.sum(p["a"] ** 2))),
                    {"a": np.array([1.0])},
                    {"a": np.array([2.0])},
                    eps=1e300,
                )

    @pytest.mark.parametrize(
        "theta, eps, entry",
        # at 1.0, +2**-53 rounds back (a tie to even) while -2**-53 is exact
        [([1.0, 2.0], 1e-320, 0), ([1.0, 1e20], 1e-5, 1), ([0.25, 1.0], 2.0**-53, 1)],
    )
    def test_a_probe_that_does_not_move_its_entry_is_an_error(self, theta, eps, entry):
        # theta +- eps rounds back to theta: every finite difference there would
        # be 0, and the check would report a wrong gradient, not a bad step
        params = {"a": np.array(theta)}
        with pytest.raises(ContractError, match=f"entry {entry} does not move it"):
            grad_check(
                per_probe(lambda p: float(np.sum(p["a"] ** 2))),
                params,
                {"a": 2.0 * params["a"]},
                eps=eps,
            )

    def test_non_finite_analytic_gradient_rejected(self):
        with pytest.raises(ContractError, match="non-finite"):
            grad_check(lambda p: 0.0, {"a": np.array([1.0])}, {"a": np.array([np.nan])})

    def test_gradient_count_and_shapes_checked(self):
        with pytest.raises(ContractError, match="gradients"):
            grad_check(lambda p: 0.0, {"a": np.array([1.0])}, {})
        with pytest.raises(ContractError, match="shape"):
            grad_check(lambda p: 0.0, {"a": np.array([1.0])}, {"a": np.array([1.0, 2.0])})

    @pytest.mark.parametrize(
        "grads", [{"b": np.array([1.0])}, {"a": np.array([1.0]), "b": np.array([1.0])}]
    )
    def test_gradient_names_must_be_the_parameter_names(self, grads):
        with pytest.raises(ContractError, match="gradients are named"):
            grad_check(lambda p: 0.0, {"a": np.array([1.0])}, grads)

    @pytest.mark.parametrize(
        "params", [{}, {"a": np.zeros(0)}, {"a": np.zeros((0, 3)), "b": np.zeros((2, 0))}]
    )
    def test_a_check_with_no_entries_is_an_error(self, params):
        grads = {n: p.copy() for n, p in params.items()}
        with pytest.raises(ContractError, match="no parameter entries"):
            grad_check(lambda p: 0.0, params, grads)

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 3), max_size=2).map(tuple), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
        perturb=st.sampled_from([0.0, 1e-6, 1e-3, 0.5]),
    )
    def test_matches_the_per_parameter_loop(self, shapes, seed, perturb):
        rng = np.random.default_rng(seed)
        names = [f"p{i}" for i in range(len(shapes))]
        params = {n: rng.normal(size=s) for n, s in zip(names, shapes)}
        weights = {n: rng.normal(size=s) for n, s in zip(names, shapes)}

        def loss(p):
            return float(sum(np.sum(weights[n] * np.sin(p[n])) for n in names))

        grads = {
            n: weights[n] * np.cos(params[n]) + perturb * rng.normal(size=params[n].shape)
            for n in names
        }
        report = grad_check(per_probe(loss), params, grads, eps=1e-5, tol=1e-4)
        oracle = grad_check_loop(
            lambda plist: loss(dict(zip(names, plist))),
            list(params.values()),
            list(grads.values()),
            eps=1e-5,
            tol=1e-4,
        )
        assert (report.max_relative_error, report.worst_parameter_index, report.passed) == oracle


def _op_gradcheck(forward, backward_to_grads, param_shapes, seed):
    """Check one kernel op by treating each of its arrays as a parameter."""
    rng = np.random.default_rng(seed)
    params = {f"p{i}": rng.normal(size=s) for i, s in enumerate(param_shapes)}

    def loss(probed):
        return 0.5 * float(np.sum(forward(list(probed.values())) ** 2))

    arrays = list(params.values())
    grads = backward_to_grads(arrays, forward(arrays))
    return grad_check(per_probe(loss), params, dict(zip(params, grads)), eps=1e-5, tol=1e-4)


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
    for report in reports:
        assert report.passed, report
