"""Projector variants: shape laws, gradients, toy fits, rate ablation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe import modality, numkit, projectors
from omnipipe.cli import main
from omnipipe.errors import ContractError, DivergenceError, ShapeError
from omnipipe.modality import TOKENS_PER_TILE, plan_tiles
from omnipipe.numkit import Tensor
from omnipipe.projectors import (
    ConvGmlpConfig,
    ProjectorParams,
    VISUAL_VARIANTS,
    VisualProjectorConfig,
    _COUNTS,
    _GMLP_BLOCK,
    _WINDOWS,
    _conv_gmlp_apply,
    _conv_gmlp_backward,
    _conv_gmlp_forward,
    _conv_gmlp_layers,
    _conv_gmlp_specs,
    _gather,
    _init,
    _pool,
    _scatter,
    _unpool,
    _visual_backward,
    _visual_forward,
    _visual_specs,
    ablate_rates,
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

from oracles import grad_check_loop, naive_conv1d, naive_pool2x2, per_probe


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

    @pytest.mark.parametrize("variant", ["c_abs", "concat", "mean_pool"])
    def test_pooled_rows_are_the_tile_budget(self, variant):
        # the projector's output rows and modality's token budget per tile
        # are one number, read from one patch grid
        cfg = VisualProjectorConfig(variant=variant, in_dim=2, llm_dim=3)
        x = np.random.default_rng(1).normal(size=(729, 2))
        out, _ = _visual_forward(cfg, _init(_visual_specs(cfg), 1), x)
        assert out.shape[0] == cfg.output_tokens == TOKENS_PER_TILE
        assert out.shape[0] == plan_tiles(384, 384).total_tokens

    def test_unsupported_rate(self):
        with pytest.raises(ContractError, match="unsupported rate"):
            ConvGmlpConfig(rate_n=3, llm_dim=8)

    @pytest.mark.parametrize("in_dim, llm_dim", [(0, 4), (4, 0)])
    def test_visual_dimensions_below_one_rejected(self, in_dim, llm_dim):
        with pytest.raises(ContractError, match="^projector dimensions must be >= 1$"):
            VisualProjectorConfig(variant="mlp", in_dim=in_dim, llm_dim=llm_dim)

    def test_non_finite_parameters_rejected(self):
        params = init_conv_gmlp_params(ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4), 0)
        tensors = dict(params.tensors)
        tensors["b_out"] = Tensor([0.0, np.nan, 0.0])
        with pytest.raises(ContractError, match="^parameter 'b_out' contains non-finite values$"):
            ProjectorParams(tensors, init_seed=0)

    @pytest.mark.parametrize("projector", [*VISUAL_VARIANTS, "conv_gmlp"])
    def test_every_projector_check_rejects_an_unsupported_rate(self, projector):
        with pytest.raises(ContractError, match="^unsupported rate 3, "):
            check_gradients(projector, seed=0, rate=3)

    def test_init_is_deterministic(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        a = init_conv_gmlp_params(cfg, 9)
        b = init_conv_gmlp_params(cfg, 9)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].array, b.tensors[name].array)


def _windows_loop(rows, cols):
    """Reference for the _WINDOWS table: one window at a time."""
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
        assert np.array_equal(_WINDOWS, _windows_loop(27, 27))
        assert np.array_equal(_COUNTS[:, 0], np.count_nonzero(_windows_loop(27, 27) >= 0, axis=1))

    def test_window_tables_are_read_only(self):
        for table in (_WINDOWS, _COUNTS):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

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


class TestPool2x2:
    def test_constant_field(self):
        out = _pool(np.ones((729, 1)))
        assert out.shape == (182, 1)
        assert np.all(out == 1.0)

    def test_27x27_pad_cols_gives_182_positions(self):
        assert _WINDOWS.shape == (182, 4)
        # the odd last column is a window of its own, half outside the grid
        assert np.array_equal(_WINDOWS[13::14] < 0, np.tile([False, True, False, True], (13, 1)))
        assert np.all(_pool(np.ones((729, 2))) == 1.0)

    def test_constant_preserved_any_shape(self):
        for c in range(1, 5):
            assert np.allclose(_pool(np.full((729, c), 2.5)), 2.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_unpool_passes_grad_check(self, seed):
        x = np.random.default_rng(seed).normal(size=(729, 2))

        def loss(p):
            return 0.5 * np.sum(_pool(p["x"]) ** 2, axis=(-2, -1))

        g_x = _unpool(_pool(x))
        assert numkit.grad_check(loss, {"x": x}, {"x": g_x}).passed

    def test_probe_axis_pools_each_probe(self):
        tokens = np.random.default_rng(9).normal(size=(3, 729, 2))
        pooled, windows = _pool(tokens), _gather(tokens)
        for k in range(3):
            assert pooled[k].tobytes() == _pool(tokens[k]).tobytes()
            assert windows[k].tobytes() == _gather(tokens[k]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(channels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_pooled_layers_match_oracle_and_adjoint(self, channels, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(729, channels))
        for variant in ("mean_pool", "c_abs"):
            cfg = VisualProjectorConfig(variant, in_dim=channels, llm_dim=channels)
            _, cache = _visual_forward(cfg, _init(_visual_specs(cfg), seed % 97), x)
            if variant == "mean_pool":
                pooled, before = cache["first"], x
            else:
                pooled, before = cache["last"], numkit.gelu(cache["z1"])
            assert np.array_equal(pooled, naive_pool2x2(before.reshape(27, 27, channels)))
        g = rng.normal(size=(182, channels))
        lhs, rhs = np.sum(_pool(x) * g), np.sum(x * _unpool(g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        g4 = rng.normal(size=(182, 4, channels))
        lhs, rhs = np.sum(_gather(x) * g4), np.sum(x * _scatter(g4))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestGradients:
    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool"])
    @pytest.mark.parametrize("seed", range(10))
    def test_visual_variants_pass_grad_check(self, variant, seed):
        report = check_gradients(variant, seed=seed)
        assert report.passed, (variant, seed, report)

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_gmlp_passes_grad_check(self, seed):
        report = check_gradients("conv_gmlp", seed=seed, rate=2)
        assert report.passed, (seed, report)

    def test_conv_gmlp_rate8_pad_path(self):
        cfg = ConvGmlpConfig(rate_n=8, llm_dim=3, in_channels=4)
        assert projectors._CHECK_SEQ_LEN == 11
        assert conv_gmlp_shapes(cfg, projectors._CHECK_SEQ_LEN)["padded_len"] == 16
        report = check_gradients("conv_gmlp", seed=0, rate=8)
        assert report.passed, report

    @settings(max_examples=30, deadline=None)
    @given(
        check=st.sampled_from(
            [(v, 2) for v in VISUAL_VARIANTS] + [("conv_gmlp", r) for r in (1, 2, 4)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(check=("conv_gmlp", 8), seed=0)
    @example(check=("conv_gmlp", 4), seed=1760409515)
    def test_batched_check_equals_the_per_entry_loop(self, check, seed):
        projector, rate = check
        report = check_gradients(projector, seed=seed, rate=rate)
        # the same check, one probe at a time through the unbatched forward
        rng = np.random.default_rng(seed)
        if projector == "conv_gmlp":
            cfg = ConvGmlpConfig(
                rate_n=rate,
                llm_dim=projectors._CHECK_LLM_DIM,
                in_channels=projectors._CHECK_CHANNELS,
            )
            params = _init(_conv_gmlp_specs(cfg), seed)
            x = rng.normal(0.0, 1.0, (projectors._CHECK_SEQ_LEN, projectors._CHECK_CHANNELS))
            forward, backward = _conv_gmlp_apply, _conv_gmlp_backward
        else:
            cfg = VisualProjectorConfig(
                projector, projectors._CHECK_IN_DIM, projectors._CHECK_LLM_DIM
            )
            params = _init(_visual_specs(cfg), seed)
            x = rng.normal(0.0, 1.0, (729, projectors._CHECK_IN_DIM))
            forward, backward = _visual_forward, _visual_backward
        out, cache = forward(cfg, params, x)
        grads, _ = backward(cfg, params, cache, out)
        names = list(params)

        def loss(plist):
            out, _ = forward(cfg, dict(zip(names, plist)), x)
            return 0.5 * float(np.sum(out**2))

        oracle = grad_check_loop(
            loss, list(params.values()), [grads[n] for n in names], eps=1e-5, tol=1e-4
        )
        assert (report.max_relative_error, report.worst_parameter_index, report.passed) == oracle

    def test_known_failing_seed_keeps_its_error(self):
        # the backward is right here; the central difference at eps=1e-5 is
        # the noisy side, and the batched probes keep its digits
        report = check_gradients("conv_gmlp", seed=1760409515, rate=4)
        assert f"{report.max_relative_error:.4g}" == "0.0001566"
        assert not report.passed

    def test_full_grid_variant_passes(self):
        # the 27x27 grid ends in an odd column, a 2x2 window of its own, and
        # its odd last row is floored away
        assert np.array_equal(_WINDOWS[-1], [24 * 27 + 26, -1, 25 * 27 + 26, -1])
        report = check_gradients("mean_pool", seed=1)
        assert report.passed, report

    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool", "conv_gmlp"])
    def test_backward_reads_the_cache_and_runs_no_forward_op(self, variant, monkeypatch):
        rng = np.random.default_rng(3)
        if variant == "conv_gmlp":
            cfg = ConvGmlpConfig(rate_n=4, llm_dim=3, in_channels=4)
            params = _init(_conv_gmlp_specs(cfg), 3)
            x = rng.normal(size=(13, 4))
            forward, backward = _conv_gmlp_apply, _conv_gmlp_backward
        else:
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=3)
            params = _init(_visual_specs(cfg), 3)
            x = rng.normal(size=(729, 4))
            forward, backward = _visual_forward, _visual_backward
        out, cache = forward(cfg, params, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("backward ran a forward op")

        for op in ("matmul", "gelu", "sigmoid"):
            monkeypatch.setattr(numkit, op, forbidden)
        monkeypatch.setattr(projectors, "_gather", forbidden)
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
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=3)
            params = init_visual_params(cfg, 4)
            x = Tensor(rng.normal(size=(729, 4)))
            out = visual_project(cfg, params, x)
            backward = visual_project_backward
        rows, cols = out.shape
        for shape in ((rows + 1, cols), (rows, cols + 1), (rows * cols,)):
            with pytest.raises(ShapeError):
                backward(cfg, params, x, Tensor(np.ones(shape)))

    def test_check_gradients_runs_backward_once(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}
        chunks = []  # probe rows of each forward that ran on a chunk of probes

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if args[1]["w_in"].ndim == 3:
                    chunks.append(len(args[1]["w_in"]))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(projectors, "_conv_gmlp_apply", counted("forward", _conv_gmlp_apply))
        monkeypatch.setattr(projectors, "_conv_gmlp_backward", counted("backward", _conv_gmlp_backward))
        assert check_gradients("conv_gmlp", seed=0, rate=2).passed
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        entries = sum(t.size for t in init_conv_gmlp_params(cfg, 0).tensors.values())
        assert calls == {"forward": 1 + len(chunks), "backward": 1}
        # 2 rows per entry, in full chunks and then the rest
        assert sum(chunks) == 2 * entries
        assert chunks[0] > 2 and all(c == chunks[0] for c in chunks[:-1])
        assert len(chunks) == -(-2 * entries // chunks[0])

    @pytest.mark.parametrize("variant", ["mlp", "c_abs", "concat", "mean_pool", "conv_gmlp"])
    def test_public_backward_runs_the_forward_once(self, variant, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(projectors, "_conv_gmlp_layers", counted(_conv_gmlp_layers))
        monkeypatch.setattr(projectors, "_visual_forward", counted(_visual_forward))
        rng = np.random.default_rng(5)
        if variant == "conv_gmlp":
            cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
            params = init_conv_gmlp_params(cfg, 5)
            x = Tensor(rng.normal(size=(9, 4)))
            public, backward, forward = conv_gmlp_forward, conv_gmlp_backward, "_conv_gmlp_layers"
        else:
            cfg = VisualProjectorConfig(variant=variant, in_dim=4, llm_dim=3)
            params = init_visual_params(cfg, 5)
            x = Tensor(rng.normal(size=(729, 4)))
            public, backward, forward = visual_project, visual_project_backward, "_visual_forward"
        out = public(cfg, params, x)
        assert calls == [forward]
        backward(cfg, params, x, out)
        assert calls == [forward, forward]

    def test_tensors_only_at_the_public_edge(self, monkeypatch):
        built = []
        init = Tensor.__init__

        def counting_init(self, values):
            built.append(1)
            init(self, values)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for projector in (*VISUAL_VARIANTS, "conv_gmlp"):
            assert check_gradients(projector, seed=0).passed
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

        def loss(p):
            return 0.5 * float(np.sum(conv_gmlp_forward(cfg, params, Tensor(p["x"])).array ** 2))

        x0 = Tensor(np.random.default_rng(6).normal(size=(10, 4)))
        _, g_x = conv_gmlp_backward(cfg, params, x0, conv_gmlp_forward(cfg, params, x0))
        assert grad_check(per_probe(loss), {"x": x0.array}, {"x": g_x.array}).passed


def _public_calls(projector):
    """Each public function of one small projector, as a function of its params."""
    rng = np.random.default_rng(12)
    if projector == "conv_gmlp":
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        x, up = Tensor(rng.normal(size=(9, 4))), Tensor(rng.normal(size=(5, 3)))
        params = init_conv_gmlp_params(cfg, 0)
        calls = [
            lambda p: conv_gmlp_forward(cfg, p, x),
            lambda p: conv_gmlp_backward(cfg, p, x, up),
            lambda p: _conv_gmlp_forward(cfg, p, x),
        ]
        # the output layer: its weight, its bias and the shortcut's weight
        return params, ("w_out", "b_out", "w_res"), calls
    cfg = VisualProjectorConfig(variant=projector, in_dim=4, llm_dim=3)
    x, up = Tensor(rng.normal(size=(729, 4))), Tensor(rng.normal(size=(cfg.output_tokens, 3)))
    calls = [
        lambda p: visual_project(cfg, p, x),
        lambda p: visual_project_backward(cfg, p, x, up),
    ]
    return init_visual_params(cfg, 0), ("w2", "b2"), calls


def _off_table(tensors, output_layer, case):
    """The params with one departure from the parameter table."""
    bias = output_layer[1]
    if case == "missing name":
        return {n: t for n, t in tensors.items() if n != bias}
    if case == "extra name":
        return {**tensors, "w_extra": tensors[bias]}
    if case == "length-1 bias":
        return {**tensors, bias: Tensor(np.ones(1))}
    # the output layer two columns wider, consistent with itself but not
    # with llm_dim: a (3, 5) w2 and a 5-long b2 under llm_dim=3
    wider = {}
    for n in output_layer:
        a = tensors[n].array
        wider[n] = Tensor(np.concatenate([a, np.ones(a.shape[:-1] + (2,))], axis=-1))
    return {**tensors, **wider}


@pytest.mark.parametrize("case", ["missing name", "extra name", "wrong-shaped weight", "length-1 bias"])
@pytest.mark.parametrize("projector", [*VISUAL_VARIANTS, "conv_gmlp"])
def test_params_off_the_table_rejected_at_every_public_function(projector, case):
    params, output_layer, calls = _public_calls(projector)
    for call in calls:
        call(params)  # the table's own params pass
    bad = ProjectorParams(_off_table(params.tensors, output_layer, case), init_seed=0)
    for call in calls:
        with pytest.raises(ContractError) as exc:
            call(bad)
        if case in ("wrong-shaped weight", "length-1 bias"):
            assert exc.type is ShapeError
        assert "parameter" in str(exc.value)


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

    def test_one_dimensional_input_rejected(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        params = init_conv_gmlp_params(cfg, 0)
        with pytest.raises(ShapeError, match=r"^projector input must be 2-D, got shape \(8,\)$"):
            conv_gmlp_forward(cfg, params, Tensor(np.zeros(8)))

    def test_zero_length_shapes_rejected(self):
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=3, in_channels=4)
        with pytest.raises(ContractError, match="^sequence length must be >= 1, got 0$"):
            conv_gmlp_shapes(cfg, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.sampled_from([1, 2, 4, 8]),
        length=st.integers(1, 40),
        channels=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_first_layer_is_the_strided_convolution(self, rate, length, channels, seed):
        # a kernel of rate taps at stride rate over the right-zero-padded input
        cfg = ConvGmlpConfig(rate_n=rate, llm_dim=2, in_channels=channels)
        p = _init(_conv_gmlp_specs(cfg), seed)
        x = np.random.default_rng(seed).normal(size=(length, channels))
        z1 = _conv_gmlp_apply(cfg, p, x)[1]["z1"]
        kernel = p["w_in"].reshape(rate, channels, rate * channels)
        want = naive_conv1d(x, kernel, rate, (-length) % rate) + p["b_in"]
        assert z1.shape == want.shape
        assert np.max(np.abs(z1 - want)) <= 1e-12


class TestConvGmlpBlocks:
    """The public forward projects each run of repeated windows once: a window
    whose bytes and real rows equal the window before it takes that window's
    row. The kept windows go through ``_GMLP_BLOCK`` at a time. A repeated
    window's row must be bit-equal to the row before it, and every
    row within 1e-14 of the largest output of the whole-array forward. With
    no repeated window, at layers (rate x channels) narrower than 512, it must
    equal the whole-array forward bit for bit; a wider layer, or a merged run
    at any width, may move a row by an ulp, since BLAS may sum a row in
    another order at another position in a block."""

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.sampled_from([1, 2, 4, 8]),
        # rows = blocks * (_GMLP_BLOCK * rate) + extra: 1, one block and one
        # row either side of it, a lone window after two blocks, and 3001
        length=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1), (0, 3001)]),
        channels=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @example(rate=1, length=(1, 1), channels=6, seed=0)
    @example(rate=8, length=(2, 1), channels=5, seed=1)
    def test_blocked_forward_equals_the_whole_array_forward(self, rate, length, channels, seed):
        blocks, extra = length
        rows = blocks * _GMLP_BLOCK * rate + extra
        cfg = ConvGmlpConfig(rate_n=rate, llm_dim=3, in_channels=channels)
        params = init_conv_gmlp_params(cfg, seed)
        x = Tensor(np.random.default_rng(seed).normal(size=(rows, channels)))
        got = conv_gmlp_forward(cfg, params, x).array
        want = _conv_gmlp_forward(cfg, params, x)[0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=12, deadline=None)
    @given(
        rate=st.sampled_from([1, 2, 4, 8]),
        width=st.sampled_from([512, 768, 1024]),
        llm_dim=st.sampled_from([3, 16]),
        # rows = blocks * (_GMLP_BLOCK * rate) + extra windows, a short last block
        length=st.tuples(st.integers(1, 2), st.integers(2, 127)),
        seed=st.integers(0, 2**16),
    )
    @example(rate=2, width=512, llm_dim=16, length=(2, 3), seed=0)  # 262 rows
    def test_blocked_forward_of_a_wide_layer_is_within_rounding(
            self, rate, width, llm_dim, length, seed):
        blocks, extra = length
        cfg = ConvGmlpConfig(rate_n=rate, llm_dim=llm_dim, in_channels=width // rate)
        params = init_conv_gmlp_params(cfg, seed)
        x = Tensor(np.random.default_rng(seed).normal(
            size=((blocks * _GMLP_BLOCK + extra) * rate, cfg.in_channels)))
        got = conv_gmlp_forward(cfg, params, x).array
        want = _conv_gmlp_forward(cfg, params, x)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.sampled_from([1, 2, 4, 8]),
        # layers (rate x channels) from 1 to 1024 wide, either side of 512
        channels=st.sampled_from([1, 3, 6, 80, 128]),
        llm_dim=st.sampled_from([3, 16, 64]),
        # whole windows per run; each run's window differs from the last run's
        runs=st.lists(st.integers(1, 12), min_size=1, max_size=30),
        # rows of a padded last window, taken modulo the rate
        tail=st.integers(0, 7),
        fill=st.sampled_from(["normal", "silent", "signed_zero", "echo"]),
        seed=st.integers(0, 2**16),
    )
    # an all-silent mel at the ingest shape: one window is projected
    @example(rate=4, channels=128, llm_dim=64, runs=[750], tail=0, fill="silent", seed=0)
    # a run over windows 100-159 crosses the first 128-window block boundary
    @example(rate=2, channels=6, llm_dim=16, runs=[1] * 100 + [60] + [1] * 40, tail=1,
             fill="normal", seed=1)
    # runs of +0.0 and -0.0 windows differ in bytes alone, and stay apart
    @example(rate=1, channels=3, llm_dim=3, runs=[2, 3, 1], tail=0, fill="signed_zero", seed=2)
    # a window [r, 0, 0, 0], then a tail r padded to the same bytes: its one
    # real row keeps it apart
    @example(rate=4, channels=3, llm_dim=3, runs=[2, 1], tail=1, fill="echo", seed=3)
    def test_each_run_of_repeated_windows_is_projected_once(
            self, rate, channels, llm_dim, runs, tail, fill, seed):
        rng = np.random.default_rng(seed)
        tail %= rate
        if fill in ("normal", "echo"):
            firsts = rng.normal(size=(len(runs), rate * channels))
        elif fill == "silent":  # one constant window: silence clamps to one mel row
            firsts = np.full((len(runs), rate * channels), -1.0)
        else:
            firsts = np.zeros((len(runs), rate * channels))
            firsts[1::2] = -0.0
        # the padded last window: tail rows, then zeros
        last = np.zeros((rate, channels))
        last[:tail] = rng.normal(size=(tail, channels))
        if fill == "echo":  # the last run's window has the padded window's bytes
            firsts[-1] = last.ravel()
        rows = np.concatenate([np.repeat(firsts, runs, axis=0).reshape(-1, channels),
                               last[:tail]])
        # the windows that start a run of equal bytes and real rows
        kept = firsts[:1] if fill == "silent" else firsts
        if tail:
            kept = np.concatenate([kept, last.reshape(1, -1)])
        cfg = ConvGmlpConfig(rate_n=rate, llm_dim=llm_dim, in_channels=channels)
        params = init_conv_gmlp_params(cfg, seed)
        projected = []

        def spy(cfg, p, windows, counts):
            projected.append(windows)
            return _conv_gmlp_layers(cfg, p, windows, counts)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(projectors, "_conv_gmlp_layers", spy)
            got = conv_gmlp_forward(cfg, params, Tensor(rows)).array
        assert np.array_equal(np.concatenate(projected).view(np.uint64), kept.view(np.uint64))
        starts = np.cumsum([0, *runs[:-1]]) if fill != "silent" else [0]
        repeated = np.ones(sum(runs), dtype=bool)
        repeated[starts] = False
        bits = got.view(np.uint64)
        assert np.array_equal(bits[1:sum(runs)][repeated[1:]], bits[:sum(runs) - 1][repeated[1:]])
        want = _conv_gmlp_forward(cfg, params, Tensor(rows))[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_a_padded_5_s_clip_projects_at_most_127_windows(self, monkeypatch):
        # 500 frames of noise, then 2500 frames of padding that clamp to one
        # mel row: 125 windows of noise and one of padding, and 127 leaves
        # room for a window where the noise ends
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=64, in_channels=128)
        params = init_conv_gmlp_params(cfg, 0)
        clip = np.random.default_rng(0).normal(0.0, 0.1, 5 * modality.SAMPLE_RATE_HZ)
        mel = modality.melspec(clip).data
        projected = []

        def spy(cfg, p, windows, counts):
            projected.append(len(windows))
            return _conv_gmlp_layers(cfg, p, windows, counts)

        monkeypatch.setattr(projectors, "_conv_gmlp_layers", spy)
        out = conv_gmlp_forward(cfg, params, mel)
        assert out.shape == (750, 64)
        assert projected and sum(projected) <= 127

    def test_working_set_of_a_3000_row_input_stays_bounded(self):
        # numpy reports its buffers to tracemalloc; the whole-array forward
        # and its cache peaked at ~21 MiB, blocks of windows at ~4 MiB
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=64, in_channels=128)
        params = init_conv_gmlp_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(3000, 128)))
        tracemalloc.start()
        try:
            conv_gmlp_forward(cfg, params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_working_set_of_a_silent_3000_row_input_stays_bounded(self):
        # an all-silent mel projects one window and repeats its row 750 times
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=64, in_channels=128)
        params = init_conv_gmlp_params(cfg, 0)
        x = Tensor(np.full((3000, 128), -1.0))
        tracemalloc.start()
        try:
            conv_gmlp_forward(cfg, params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

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

    @pytest.mark.parametrize("lr, step", [(1e6, 3), (1e308, 0)])
    def test_divergence_of_the_ablation_defaults_raises_at_its_step(self, lr, step):
        # ablate-rates' defaults at rate 2: at lr 1e6 the loss of step 3 is
        # the first non-finite value; at lr 1e308 the update of step 0 is
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=16, in_channels=32)
        with pytest.raises(DivergenceError, match=f"^non-finite loss at step {step}$"):
            toy_fit(cfg, steps=5, lr=lr, seed=0)

    def test_non_finite_update_raises_at_its_step(self):
        # the loss at step 0 is finite; the update overflows the parameters
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=4, in_channels=4)
        with pytest.raises(DivergenceError, match="non-finite loss at step 0$"):
            toy_fit(cfg, steps=3, lr=1e308, seed=0, seq_len=16)

    @pytest.mark.parametrize("channels, llm_dim, seq_len, name", [
        (32, 16, 10**17, "input"),
        (2**63 - 1, 16, 128, "input"),
        (32, 2**63 - 1, 128, "target map"),
        (10**15, 16, 128, "w_in"),
        (2**40, 16, 1, "w_in"),
    ])
    def test_unaddressable_sizes_rejected_before_allocating(
        self, monkeypatch, channels, llm_dim, seq_len, name
    ):
        def no_draws(seed):
            raise AssertionError("toy_fit drew arrays")

        monkeypatch.setattr(projectors, "_rng", no_draws)
        cfg = ConvGmlpConfig(rate_n=2, llm_dim=llm_dim, in_channels=channels)
        with pytest.raises(ContractError, match=f"^toy fit {name} of shape .* too large to address$"):
            toy_fit(cfg, steps=1, lr=1e-3, seed=0, seq_len=seq_len)


class TestAblateRates:
    def test_three_rates(self):
        rows = ablate_rates([2, 4, 8], task_seed=0, steps=5, in_channels=8, llm_dim=4, seq_len=64)
        assert [r["rate"] for r in rows] == [2, 4, 8]
        assert [r["output_length_ratio"] for r in rows] == [0.5, 0.25, 0.125]
        assert [r["param_count"] for r in rows] == [
            sum(t.size for t in init_conv_gmlp_params(
                ConvGmlpConfig(rate, llm_dim=4, in_channels=8), 0).tensors.values())
            for rate in (2, 4, 8)
        ]
        assert all(np.isfinite(r["final_loss"]) for r in rows)

    def test_rate_one_ratio(self):
        rows = ablate_rates([1], task_seed=0, steps=2, in_channels=4, llm_dim=2, seq_len=8)
        assert rows[0]["output_length_ratio"] == 1.0

    def test_unsupported_rate(self):
        with pytest.raises(ContractError, match="unsupported rate"):
            ablate_rates([3], task_seed=0)

    def test_every_rate_checked_before_the_first_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("toy_fit ran")

        monkeypatch.setattr(projectors, "toy_fit", no_fit)
        with pytest.raises(ContractError, match="unsupported rate 3"):
            ablate_rates([8, 8, 3], task_seed=0)

    def test_empty_rates_rejected(self):
        with pytest.raises(ContractError):
            ablate_rates([], task_seed=0)

    def test_csv_header(self, capsys):
        argv = ["ablate-rates", "--rates", "2", "--seed", "0", "--steps", "2", "--channels", "4",
                "--llm-dim", "2", "--length", "8"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith("rate,len_ratio,params,final_loss\n")
        assert text.count("\n") == 2
