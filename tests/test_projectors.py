"""Projector variants: shape laws, gradients, toy fits, rate ablation."""

import numpy as np
import pytest

from omnipipe import numkit, projectors
from omnipipe.errors import ContractError, DivergenceError, ShapeError
from omnipipe.numkit import Tensor
from omnipipe.projectors import (
    ConvGmlpConfig,
    VISUAL_VARIANTS,
    VisualProjectorConfig,
    _arrays,
    _concat_groups,
    _conv_gmlp_apply,
    _conv_gmlp_backward,
    _conv_gmlp_forward,
    _visual_backward,
    _visual_forward,
    ablate_rates,
    ablation_csv,
    check_gradients,
    conv_gmlp_backward,
    conv_gmlp_forward,
    conv_gmlp_shapes,
    init_conv_gmlp_params,
    init_visual_params,
    toy_fit,
    visual_project,
    visual_project_backward,
)


class TestConfigs:
    def test_unknown_variant(self):
        with pytest.raises(ContractError):
            VisualProjectorConfig(variant="bilinear", in_dim=4, llm_dim=4)

    def test_output_tokens_law(self):
        mlp = VisualProjectorConfig(variant="mlp", in_dim=4, llm_dim=4)
        assert mlp.output_tokens == 729
        for variant in ("c_abs", "concat", "mean_pool"):
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=4)
            assert cfg.output_tokens == 182

    def test_unsupported_rate(self):
        with pytest.raises(ContractError, match="unsupported rate"):
            ConvGmlpConfig(rate_n=3, llm_dim=8)

    def test_default_strides(self):
        assert ConvGmlpConfig(rate_n=8, llm_dim=4, in_channels=4).strides == (8, 1)

    def test_alternate_strides_must_multiply_to_rate(self):
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=4, in_channels=4, strides=(2, 2))
        assert cfg.strides == (2, 2)
        with pytest.raises(ContractError):
            ConvGmlpConfig(rate_n=4, llm_dim=4, in_channels=4, strides=(3, 2))

    def test_init_is_deterministic(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        a = init_conv_gmlp_params(cfg, 9)
        b = init_conv_gmlp_params(cfg, 9)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].array, b.tensors[name].array)


def _concat_groups_loop(rows, cols):
    """Reference for the vectorised _concat_groups: one window at a time."""
    out_rows, out_cols = (rows - 2) // 2 + 1, (cols + cols % 2) // 2
    idx = np.full((out_rows * out_cols, 4), -1, dtype=np.int64)
    g = 0
    for i in range(out_rows):
        for j in range(out_cols):
            for m, (di, dj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                r, c = 2 * i + di, 2 * j + dj
                if r < rows and c < cols:
                    idx[g, m] = r * cols + c
            g += 1
    return idx


class TestVisualProject:
    def test_concat_groups_match_loop_reference(self):
        for rows in range(2, 12):
            for cols in range(1, 12):
                cfg = VisualProjectorConfig("concat", in_dim=2, llm_dim=2, grid=(rows, cols))
                assert np.array_equal(_concat_groups(cfg), _concat_groups_loop(rows, cols))
                assert cfg.output_tokens == len(_concat_groups_loop(rows, cols))


    def test_full_size_mlp_keeps_729_tokens(self):
        cfg = VisualProjectorConfig(variant="mlp", in_dim=1152, llm_dim=4096)
        params = init_visual_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(729, 1152)))
        assert visual_project(cfg, params, x).shape == (729, 4096)

    def test_full_size_mean_pool_gives_182_tokens(self):
        cfg = VisualProjectorConfig(variant="mean_pool", in_dim=1152, llm_dim=4096)
        params = init_visual_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(729, 1152)))
        assert visual_project(cfg, params, x).shape == (182, 4096)

    def test_wrong_row_count_rejected(self):
        cfg = VisualProjectorConfig(variant="mlp", in_dim=8, llm_dim=8)
        params = init_visual_params(cfg, 0)
        with pytest.raises(ShapeError):
            visual_project(cfg, params, Tensor(np.zeros((730, 8))))

    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool"])
    def test_token_count_law_small_dims(self, variant):
        cfg = VisualProjectorConfig(variant=variant, in_dim=6, llm_dim=5)
        params = init_visual_params(cfg, 3)
        x = Tensor(np.random.default_rng(3).normal(size=(729, 6)))
        out = visual_project(cfg, params, x)
        assert out.shape == ((729, 5) if variant == "mlp" else (182, 5))

    def test_concat_has_more_first_layer_parameters_than_mlp(self):
        mlp = init_visual_params(
            VisualProjectorConfig(variant="mlp", in_dim=6, llm_dim=5), 0
        )
        concat = init_visual_params(
            VisualProjectorConfig(variant="concat", in_dim=6, llm_dim=5), 0
        )
        assert concat.tensors["w1"].size > mlp.tensors["w1"].size
        assert concat.tensors["w1"].size == 4 * mlp.tensors["w1"].size


class TestGradients:
    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool"])
    @pytest.mark.parametrize("seed", range(10))
    def test_visual_variants_pass_grad_check(self, variant, seed):
        report = check_gradients(variant, seed=seed, grid=(5, 5))
        assert report.passed, (variant, seed, report)

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_gmlp_passes_grad_check(self, seed):
        report = check_gradients("conv_gmlp", seed=seed, rate=2, seq_len=16)
        assert report.passed, (seed, report)

    def test_conv_gmlp_rate8_pad_path(self):
        report = check_gradients("conv_gmlp", seed=0, rate=8, seq_len=9)
        assert report.passed, report

    def test_full_grid_variant_passes(self):
        report = check_gradients("mean_pool", seed=1)  # default 27x27 grid
        assert report.passed, report

    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool", "conv_gmlp"])
    def test_backward_reads_the_cache_and_runs_no_forward_op(self, variant, monkeypatch):
        rng = np.random.default_rng(3)
        if variant == "conv_gmlp":
            cfg = ConvGmlpConfig(rate_n=4, llm_dim=3, in_channels=4)
            params = _arrays(init_conv_gmlp_params(cfg, 3))
            x = rng.normal(size=(13, 4))
            forward, backward = _conv_gmlp_apply, _conv_gmlp_backward
        else:
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=3, grid=(5, 7))
            params = _arrays(init_visual_params(cfg, 3))
            x = rng.normal(size=(cfg.input_tokens, 4))
            forward, backward = _visual_forward, _visual_backward
        out, cache = forward(cfg, params, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("backward ran a forward op")

        for op in ("matmul", "conv1d", "pool2x2", "gelu", "sigmoid", "elementwise_mul", "add_bias"):
            monkeypatch.setattr(numkit, op, forbidden)
        grads, g_x = backward(cfg, params, cache, out)
        assert sorted(grads) == sorted(params)
        assert g_x.shape == x.shape

    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool", "conv_gmlp"])
    def test_wrong_upstream_shape_rejected(self, variant):
        rng = np.random.default_rng(4)
        if variant == "conv_gmlp":
            cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
            params = init_conv_gmlp_params(cfg, 4)
            x = Tensor(rng.normal(size=(9, 4)))
            out = conv_gmlp_forward(cfg, params, x)
            backward = conv_gmlp_backward
        else:
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=3, grid=(5, 5))
            params = init_visual_params(cfg, 4)
            x = Tensor(rng.normal(size=(cfg.input_tokens, 4)))
            out = visual_project(cfg, params, x)
            backward = visual_project_backward
        rows, cols = out.shape
        for shape in ((rows + 1, cols), (rows, cols + 1), (rows * cols,)):
            with pytest.raises(ShapeError):
                backward(cfg, params, x, Tensor(np.ones(shape)))

    def test_check_gradients_runs_backward_once(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(projectors, "_conv_gmlp_apply", counted("forward", _conv_gmlp_apply))
        monkeypatch.setattr(projectors, "_conv_gmlp_backward", counted("backward", _conv_gmlp_backward))
        assert check_gradients("conv_gmlp", seed=0, rate=2, seq_len=16).passed
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        entries = init_conv_gmlp_params(cfg, 0).param_count
        assert calls == {"forward": 1 + 2 * entries, "backward": 1}

    def test_tensors_only_at_the_public_edge(self, monkeypatch):
        built = []
        init = Tensor.__init__

        def counting_init(self, values):
            built.append(1)
            init(self, values)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for projector in (*VISUAL_VARIANTS, "conv_gmlp"):
            assert check_gradients(projector, seed=0, grid=(5, 5)).passed
        assert built == []
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        params = init_conv_gmlp_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(9, 4)))
        out = conv_gmlp_forward(cfg, params, x)
        built.clear()
        grads, _ = conv_gmlp_backward(cfg, params, x, out)
        assert len(built) == len(grads) + 1

    def test_zero_upstream_gives_zero_parameter_gradients(self):
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=3, in_channels=4)
        params = init_conv_gmlp_params(cfg, 5)
        x = Tensor(np.random.default_rng(5).normal(size=(12, 4)))
        out = conv_gmlp_forward(cfg, params, x)
        zero = Tensor(np.zeros(out.shape))
        grads, g_x = conv_gmlp_backward(cfg, params, x, zero)
        for name, g in grads.items():
            assert np.all(g.array == 0.0), name
        assert np.all(g_x.array == 0.0)

    def test_input_gradient_matches_finite_differences(self):
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=3, in_channels=4)
        params = init_conv_gmlp_params(cfg, 6)
        from omnipipe.numkit import grad_check

        def loss(plist, _):
            return 0.5 * float(np.sum(conv_gmlp_forward(cfg, params, Tensor(plist[0])).array ** 2))

        x0 = Tensor(np.random.default_rng(6).normal(size=(10, 4)))
        _, g_x = conv_gmlp_backward(cfg, params, x0, conv_gmlp_forward(cfg, params, x0))
        assert grad_check(loss, [x0.array], None, [g_x.array]).passed


class TestConvGmlpShapes:
    def test_length_law_all_rates(self):
        rng = np.random.default_rng(9)
        for rate in (1, 2, 4, 8):
            cfg = ConvGmlpConfig(rate_n=rate, llm_dim=3, in_channels=4)
            params = init_conv_gmlp_params(cfg, 1)
            for _ in range(10):
                length = int(rng.integers(1, 70))
                x = Tensor(rng.normal(size=(length, 4)))
                out, cache = _conv_gmlp_forward(cfg, params, x)
                expected_len = -(-length // rate)
                assert out.shape == (expected_len, 3)
                assert cache["gated"].shape == (expected_len, rate * 4)

    def test_rate_1_keeps_length(self):
        cfg = ConvGmlpConfig(rate_n=1, llm_dim=2, in_channels=3)
        params = init_conv_gmlp_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(100, 3)))
        assert conv_gmlp_forward(cfg, params, x).shape == (100, 2)

    def test_pad_rule_rate8_len30(self):
        cfg = ConvGmlpConfig(rate_n=8, llm_dim=2, in_channels=3)
        shapes = conv_gmlp_shapes(cfg, 30)
        assert shapes["padded_len"] == 32
        assert shapes["output_len"] == 4

    def test_divisible_length_is_exact_quarter_at_rate_4(self):
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=2, in_channels=3)
        for length in (4, 40, 100, 512):
            assert conv_gmlp_shapes(cfg, length)["output_len"] == length // 4

    def test_intermediate_channels_follow_rate(self):
        for rate in (2, 4, 8):
            cfg = ConvGmlpConfig(rate_n=rate, llm_dim=8, in_channels=1280)
            assert conv_gmlp_shapes(cfg, 100)["intermediate_channels"] == rate * 1280

    def test_channel_mismatch_rejected(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        params = init_conv_gmlp_params(cfg, 0)
        with pytest.raises(ShapeError):
            conv_gmlp_forward(cfg, params, Tensor(np.zeros((10, 5))))

    def test_alternate_strides_same_output_shape(self):
        for strides in ((4, 1), (2, 2), (1, 4)):
            cfg = ConvGmlpConfig(rate_n=4, llm_dim=3, in_channels=4, strides=strides)
            params = init_conv_gmlp_params(cfg, 2)
            x = Tensor(np.random.default_rng(2).normal(size=(18, 4)))
            assert conv_gmlp_forward(cfg, params, x).shape == (5, 3)


class TestToyFit:
    def test_spec_case_halves_loss(self):
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=16, in_channels=32)
        losses = toy_fit(cfg, steps=200, lr=1e-3, seed=7)
        assert len(losses) == 200
        assert losses[-1] <= 0.5 * losses[0]

    def test_zero_steps_rejected(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        with pytest.raises(ContractError):
            toy_fit(cfg, steps=0, lr=1e-3, seed=0)

    def test_zero_lr_flat_curve(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        losses = toy_fit(cfg, steps=5, lr=0.0, seed=0, seq_len=16)
        assert losses == [losses[0]] * 5

    def test_negative_lr_rejected(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        with pytest.raises(ContractError, match=r"^lr must be >= 0, got -1.0$"):
            toy_fit(cfg, steps=5, lr=-1.0, seed=0, seq_len=16)

    def test_divergence_raises_with_step(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        with pytest.raises(ContractError, match="step"):
            toy_fit(cfg, steps=50, lr=1e6, seed=0, seq_len=16)

    def test_non_finite_update_raises_at_its_step(self):
        # the loss at step 0 is finite; the update overflows the parameters
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        with pytest.raises(DivergenceError, match="non-finite loss at step 0$"):
            toy_fit(cfg, steps=3, lr=1e308, seed=0, seq_len=16)


class TestAblateRates:
    def test_three_rates(self):
        rows = ablate_rates([2, 4, 8], task_seed=0, steps=5, in_channels=8, llm_dim=4, seq_len=64)
        assert [r["rate"] for r in rows] == [2, 4, 8]
        assert [r["output_length_ratio"] for r in rows] == [0.5, 0.25, 0.125]
        assert all(r["param_count"] > 0 for r in rows)
        assert all(np.isfinite(r["final_loss"]) for r in rows)

    def test_rate_one_ratio(self):
        rows = ablate_rates([1], task_seed=0, steps=2, in_channels=4, llm_dim=2, seq_len=8)
        assert rows[0]["output_length_ratio"] == 1.0

    def test_unsupported_rate(self):
        with pytest.raises(ContractError, match="unsupported rate"):
            ablate_rates([3], task_seed=0)

    def test_empty_rates_rejected(self):
        with pytest.raises(ContractError):
            ablate_rates([], task_seed=0)

    def test_csv_header(self):
        rows = ablate_rates([2], task_seed=0, steps=2, in_channels=4, llm_dim=2, seq_len=8)
        text = ablation_csv(rows)
        assert text.startswith("rate,len_ratio,params,final_loss\n")
        assert text.count("\n") == 2
