import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvf.actor import load_policy
from rvf.bnn_critic import load_critic
from rvf.envs_data import load_dataset
from rvf.errors import ConfigError, FormatError, NumericError, ShapeError, UsageError
from rvf.math_core import (AdamState, FlatParams, Mlp, adam_step, backward,
                           forward, load_params, save_params, soft_update,
                           write_atomic)
from rvf.oracles import finite_difference, relative_gradient_error


def make_net(widths, seed=0, **kwargs):
    return Mlp.init(widths, np.random.default_rng(seed), **kwargs)


class TestForward:
    def test_zero_weights_return_last_bias(self):
        net = make_net((3, 5, 2))
        for w in net.weights:
            w[:] = 0.0
        net.biases[-1][:] = [1.5, -2.0]
        out, _ = forward(net, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1.5, -2.0])

    def test_identity_single_layer(self):
        net = make_net((4, 4))
        net.weights[0] = np.eye(4)
        net.biases[0][:] = 0.0
        x = np.array([0.3, -1.2, 5.0, 0.0])
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_matches_straight_line_reevaluation(self):
        # Independent re-evaluation of the affine + relu chain.
        net = make_net((3, 7, 2), seed=11)
        x = np.random.default_rng(5).normal(size=3)
        h = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = h @ net.weights[1] + net.biases[1]
        out, _ = forward(net, x)
        assert np.allclose(out, expected, atol=0, rtol=1e-15)

    def test_batch_matches_per_row(self):
        # gemm vs gemv may differ in summation order; agreement to 1e-13.
        net = make_net((3, 6, 2), seed=2)
        xs = np.random.default_rng(3).normal(size=(5, 3))
        batch_out, _ = forward(net, xs)
        for i in range(5):
            row_out, _ = forward(net, xs[i])
            assert np.allclose(batch_out[i], row_out, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch_raises(self):
        net = make_net((3, 2))
        with pytest.raises(ShapeError):
            forward(net, np.ones(4))


class TestBackward:
    def test_linear_quadratic_analytic(self):
        # y = W x (1 output), loss = y^2, dloss/dW = 2 y x^T.
        net = make_net((3, 1))
        net.biases[0][:] = 0.0
        x = np.array([1.0, -2.0, 0.5])
        y, cache = forward(net, x)
        grads, _ = backward(net, cache, 2.0 * y)
        assert np.allclose(grads["w0"], 2.0 * y * x[:, None])

    def test_zero_output_grad_gives_zero_grads(self):
        net = make_net((4, 8, 3), seed=9)
        _, cache = forward(net, np.ones(4))
        grads, input_grad = backward(net, cache, np.zeros(3))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(input_grad == 0.0)

    @pytest.mark.parametrize("widths,kwargs", [
        ((5, 16, 3), {}),
        ((4, 32, 32, 2), {}),
        ((3, 12, 5), {"layer_norm": True}),
        ((6, 10, 10, 1), {"activation": "tanh"}),
        ((4, 8, 8), {"final_activation": "relu"}),
    ])
    def test_gradients_match_finite_differences(self, widths, kwargs):
        net = make_net(widths, seed=sum(widths), **kwargs)
        rng = np.random.default_rng(77)
        x = rng.normal(size=(4, widths[0]))
        tgt = rng.normal(size=(4, widths[-1]))

        def loss_fn(params):
            net.set_params(params)
            out, _ = forward(net, x)
            return float(np.sum((out - tgt) ** 2))

        out, cache = forward(net, x)
        grads, _ = backward(net, cache, 2.0 * (out - tgt))
        numeric = finite_difference(loss_fn, net.get_params())
        assert relative_gradient_error(grads, numeric) <= 1e-4

    def test_stale_cache_rejected(self):
        net_a = make_net((3, 4, 2), seed=0)
        net_b = make_net((3, 5, 2), seed=0)
        _, cache = forward(net_a, np.ones(3))
        with pytest.raises(UsageError):
            backward(net_b, cache, np.ones(2))

    def test_determinism_bit_identical(self):
        runs = []
        for _ in range(2):
            net = make_net((4, 16, 3), seed=123)
            x = np.random.default_rng(5).normal(size=(8, 4))
            out, cache = forward(net, x)
            grads, _ = backward(net, cache, out)
            runs.append((out.tobytes(), {k: v.tobytes() for k, v in grads.items()}))
        assert runs[0] == runs[1]


def _flat(**arrays) -> FlatParams:
    """A FlatParams holding the given arrays, in keyword order."""
    flat = FlatParams({k: np.shape(v) for k, v in arrays.items()})
    flat.vector[:] = flat.pack({k: np.asarray(v, dtype=np.float64)
                                for k, v in arrays.items()})
    return flat


class TestAdam:
    def test_zero_gradient_leaves_params_and_decays_moments(self):
        params = _flat(w=[1.0, -2.0])
        state = AdamState.init(params, lr=0.1)
        zero = np.zeros(2)
        new_params, state = adam_step(params, zero, state)
        assert np.array_equal(new_params, params.vector)
        # seed a moment, then a zero-grad step shrinks it by beta1
        state.m[:] = 1.0
        params.vector[:] = new_params
        _, state2 = adam_step(params, zero, state)
        assert np.allclose(state2.m, 0.9)

    def test_first_step_magnitude_is_lr_times_sign(self):
        g = np.array([0.3, -7.0, 1e-4])
        params = _flat(w=np.zeros(3))
        state = AdamState.init(params, lr=1e-3)
        new_params, _ = adam_step(params, g, state)
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) up to eps
        assert np.allclose(new_params, -1e-3 * np.sign(g), atol=1e-6)

    def test_two_step_trace_matches_hand_computation(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        g1, g2 = 0.7, -0.7
        params = _flat(w=[0.5])
        state = AdamState.init(params, lr=lr)
        p1, state = adam_step(params, np.array([g1]), state)
        params.vector[:] = p1
        p2, state = adam_step(params, np.array([g2]), state)
        # hand trace
        m1, v1 = (1 - b1) * g1, (1 - b2) * g1 ** 2
        u1 = lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        m2, v2 = b1 * m1 + (1 - b1) * g2, b2 * v1 + (1 - b2) * g2 ** 2
        u2 = lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)
        assert np.allclose(p1, 0.5 - u1, atol=1e-15)
        assert np.allclose(p2, 0.5 - u1 - u2, atol=1e-15)
        # after the sign flip the update is smaller than the naive lr*sign step
        assert abs(u2) < lr

    def test_nonfinite_gradient_names_parameter(self):
        params = _flat(ok=np.ones(2), bad=np.ones(2))
        state = AdamState.init(params)
        grads = np.array([0.0, 0.0, 1.0, np.nan])
        with pytest.raises(NumericError, match="bad"):
            adam_step(params, grads, state)

    def test_shape_mismatch(self):
        params = _flat(w=np.ones(3))
        state = AdamState.init(params)
        with pytest.raises(ShapeError):
            adam_step(params, np.ones(4), state)

    def test_step_counter_increments(self):
        params = _flat(w=np.ones(1))
        state = AdamState.init(params)
        _, state = adam_step(params, np.ones(1), state)
        _, state = adam_step(params, np.ones(1), state)
        assert state.step == 2


def _per_key_adam(params, grads, m, v, t, lr, weight_decay,
                  b1=0.9, b2=0.999, eps=1e-8):
    """The Adam formula written out key by key."""
    out = {}
    for k, p in params.items():
        m[k] = b1 * m[k] + (1.0 - b1) * grads[k]
        v[k] = b2 * v[k] + (1.0 - b2) * grads[k] * grads[k]
        update = lr * (m[k] / (1.0 - b1 ** t)) / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
        if weight_decay:
            update = update + lr * weight_decay * p
        out[k] = p - update
    return out


class TestFlatParams:
    SHAPES = {"a/w": (3, 4), "a/b": (4,), "head": (2, 5), "s": ()}

    def _random(self, rng):
        return {k: rng.normal(size=s) for k, s in self.SHAPES.items()}

    def test_views_share_the_vector_in_key_order(self):
        flat = FlatParams(self.SHAPES)
        assert flat.vector.shape == (12 + 4 + 10 + 1,)
        flat.views["head"][1, 2] = 7.0
        assert flat.vector[12 + 4 + 5 + 2] == 7.0
        assert [flat.key_at(i) for i in (0, 11, 12, 15, 16, 25, 26)] == \
            ["a/w", "a/w", "a/b", "a/b", "head", "head", "s"]
        params = self._random(np.random.default_rng(0))
        vec = flat.pack(params)
        assert np.array_equal(vec[12:16], params["a/b"])
        with pytest.raises(ShapeError):
            flat.pack({**params, "a/b": np.zeros(5)})

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_adam_and_polyak_equal_per_key_formula(self, weight_decay):
        rng = np.random.default_rng(1)
        params = self._random(rng)
        flat = FlatParams(self.SHAPES)
        flat.vector[:] = flat.pack(params)
        flat_state = AdamState.init(flat, lr=3e-3)
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        ref_v = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        for t in range(1, 6):
            grads = self._random(rng)
            ref = _per_key_adam(ref, grads, ref_m, ref_v, t, 3e-3, weight_decay)
            new, flat_state = adam_step(flat, flat.pack(grads), flat_state,
                                        weight_decay=weight_decay)
            flat.vector[:] = new
            for k in self.SHAPES:
                assert np.array_equal(flat.views[k], ref[k]), k
            assert np.array_equal(flat_state.m, flat.pack(ref_m))
            assert np.array_equal(flat_state.v, flat.pack(ref_v))
        assert flat_state.step == 5

        online = self._random(rng)
        flat_online = FlatParams(self.SHAPES)
        flat_online.vector[:] = flat.pack(online)
        expected = {k: 0.995 * ref[k] + (1.0 - 0.995) * online[k]
                    for k in self.SHAPES}
        assert np.array_equal(soft_update(flat, flat_online, 0.995),
                              flat.pack(expected))

    def test_flat_nonfinite_gradient_names_parameter(self):
        flat = FlatParams(self.SHAPES)
        grads = np.zeros_like(flat.vector)
        grads[13] = np.nan
        with pytest.raises(NumericError, match="a/b"):
            adam_step(flat, grads, AdamState.init(flat))
        with pytest.raises(ShapeError):
            adam_step(flat, np.zeros(3), AdamState.init(flat))

    def test_bound_mlp_writes_through_to_storage(self):
        net = make_net((3, 4, 2), seed=2, layer_norm=True)
        before = {k: v.copy() for k, v in net.get_params().items()}
        flat = FlatParams({k: v.shape for k, v in before.items()})
        net.bind(flat.views)
        assert all(np.array_equal(flat.views[k], before[k]) for k in before)
        net.ln_gains[0][:] = 3.0                   # in-place write
        assert np.array_equal(flat.views["ln_g0"], np.full(4, 3.0))
        net.set_params({**before, "b0": np.full(4, 0.5)})
        assert np.array_equal(flat.views["b0"], np.full(4, 0.5))
        assert np.array_equal(flat.views["w1"], before["w1"])
        net.weights[1] = np.ones((4, 2))          # item assignment
        assert np.array_equal(flat.views["w1"], np.ones((4, 2)))
        with pytest.raises(ShapeError):
            net.weights[0] = np.ones((2, 2))


class TestSoftUpdate:
    @pytest.mark.parametrize("rho,expected", [(1.0, 2.0), (0.0, 4.0), (0.5, 3.0)])
    def test_endpoint_and_midpoint(self, rho, expected):
        out = soft_update(_flat(w=[2.0]), _flat(w=[4.0]), rho)
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(ConfigError):
            soft_update(_flat(w=np.ones(1)), _flat(w=np.ones(1)), rho)

    @given(st.floats(0.0, 1.0), st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_stays_between_endpoints(self, rho, values):
        target = np.asarray(values)
        online = target[::-1].copy()
        out = soft_update(_flat(w=target), _flat(w=online), rho)
        lo = np.minimum(target, online) - 1e-12
        hi = np.maximum(target, online) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestParamsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"a/w": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        path = tmp_path / "p.ckpt"
        save_params(path, params, {"note": 1})
        loaded, meta = load_params(path)
        assert meta == {"note": 1}
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])

    def test_truncated_payload_errors_with_offset(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_params(path, {"w": np.ones((4, 4))}, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="offset"):
            load_params(path)

    def test_corrupt_header_errors(self, tmp_path):
        path = tmp_path / "p.ckpt"
        path.write_bytes((40).to_bytes(8, "little") + b"x" * 40)
        with pytest.raises(FormatError):
            load_params(path)

    def test_file_is_the_documented_envelope(self, tmp_path):
        # uint64 LE header length, compact sorted-key JSON header, <f8 payload
        params = {"w": np.arange(6.0).reshape(2, 3), "s": np.array(2.5)}
        path = tmp_path / "p.ckpt"
        save_params(path, params, {"b": 1, "a": [2]})
        header = {"kind": "rvf-params", "version": 1, "meta": {"b": 1, "a": [2]},
                  "entries": [{"name": "w", "shape": [2, 3]},
                              {"name": "s", "shape": []}]}
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        payload = np.concatenate([np.arange(6.0), [2.5]]).astype("<f8").tobytes()
        assert path.read_bytes() == len(blob).to_bytes(8, "little") + blob + payload

    @pytest.mark.parametrize("header", [
        {"kind": "rvf-params", "version": 1, "meta": {}},
        [1, 2],
        {"kind": "rvf-params", "meta": {}, "entries": [{"name": "w", "shape": "ab"}]},
        {"kind": "rvf-params", "meta": {}, "entries": [{"name": "w", "shape": [-1]}]},
        {"kind": "rvf-params", "meta": {}, "entries": [{"name": "w", "shape": [0, 2 ** 70]}]},
        {"kind": "rvf-params", "meta": {}, "entries": [{"name": 3, "shape": [1]}]},
        {"kind": "rvf-params", "meta": {}, "entries": {"w": [1]}},
        {"kind": "rvf-params", "meta": [], "entries": []},
        {"kind": "rvf-dataset", "meta": {}, "entries": []},
    ])
    def test_header_schema_violations_are_format_errors(self, tmp_path, header):
        path = tmp_path / "p.ckpt"
        path.write_bytes(_envelope(header) + bytes(8))
        with pytest.raises(FormatError, match="offset 8"):
            load_params(path)

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_params(path, {"w": np.ones(3)}, {"version": "old"})
        before = path.read_bytes()

        def chunks():
            yield b"partial"
            raise RuntimeError("disk went away")

        with pytest.raises(RuntimeError):
            write_atomic(path, chunks())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ckpt"]
        save_params(path, {"w": np.zeros(2)}, {"version": "new"})
        assert load_params(path)[1] == {"version": "new"}


def _envelope(header) -> bytes:
    blob = json.dumps(header).encode()
    return len(blob).to_bytes(8, "little") + blob


def _json_containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4),
    _json_containers, max_leaves=8)
_SIZE = st.integers(-1, 3) | st.integers()
_DIM = st.integers(-1, 3)
_FLOATS = st.lists(st.floats(-2, 2), min_size=1, max_size=2)
# Checkpoint metas that pass every type check (so the loaders go on to build
# the model and compare layouts), and metas with fields missing or mistyped.
_VALID_META = st.fixed_dictionaries({
    "kind": st.sampled_from(["critic", "policy"]),
    "state_dim": st.integers(1, 2), "action_dim": st.just(1),
    "members": st.integers(1, 2), "posterior_samples": st.integers(1, 3),
    "hidden_widths": st.lists(st.integers(1, 3), min_size=1, max_size=2),
    "action_scale": st.just([1.0]), "action_offset": st.just([0.0]),
    "log_std_min": st.floats(-5, 0), "log_std_max": st.floats(0, 2)},
    optional={"layer_norm": st.booleans()})
_META = _VALID_META | st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["critic", "policy"]) | _JSON,
    "state_dim": _DIM | _JSON, "action_dim": _DIM | _JSON,
    "members": _DIM | _JSON, "posterior_samples": _DIM | _JSON,
    "hidden_widths": st.lists(_DIM, max_size=2) | _JSON,
    "action_scale": _FLOATS | _JSON, "action_offset": _FLOATS | _JSON,
    "log_std_min": st.floats() | _JSON, "log_std_max": st.floats() | _JSON,
    "layer_norm": _JSON})
_ENTRIES = st.lists(st.fixed_dictionaries({
    "name": st.sampled_from(["trunk/w0", "trunk/b0", "m0/head/mean"]),
    "shape": st.lists(_SIZE, max_size=2)}), max_size=3)
# Headers of each kind with fields of the right and wrong types, and plain
# random JSON.  Header sizes may be huge (a decoder reads no more than the
# file holds); meta sizes stay small, as the loaders build those models.
_HEADERS = (
    st.fixed_dictionaries({"kind": st.just("rvf-params"), "entries": _ENTRIES,
                           "meta": _META})
    | st.fixed_dictionaries({"kind": st.just("rvf-dataset")}, optional={
        "rows": _SIZE | _JSON, "state_dim": _SIZE | _JSON,
        "action_dim": _SIZE | _JSON, "meta": _JSON})
    | st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["rvf-params", "rvf-dataset"]) | _JSON,
        "entries": _ENTRIES | _JSON, "meta": _META | _JSON})
    | _JSON)
_DECODERS = (load_params, load_dataset, load_critic, load_policy)


def _only_format_errors(path) -> None:
    for decode in _DECODERS:
        try:
            decode(path)
        except FormatError:
            pass


class TestDecoderFuzz:
    """Whatever the bytes, the decoders load them or raise FormatError."""

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz-bytes.bin"
        path.write_bytes(raw)
        _only_format_errors(path)

    @given(_HEADERS, st.integers(0, 12))
    @settings(max_examples=400, deadline=None)
    def test_random_json_headers(self, tmp_path_factory, header, n_floats):
        path = tmp_path_factory.getbasetemp() / "fuzz-header.bin"
        path.write_bytes(_envelope(header) + bytes(8 * n_floats))
        _only_format_errors(path)
