"""Dense MLP forward/backward, flat parameter storage, Adam, Polyak
averaging, parameter serialization.

Everything is float64.  Adam and Polyak are pure: they take explicit state
and return new state, so callers can replay any step.  A model can keep all
its parameters in one FlatParams vector, with its named arrays as views of
it, so that each update is one elementwise pass over the whole model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError, UsageError

Params = dict[str, np.ndarray]

_HIDDEN_ACTIVATIONS = ("relu", "tanh", "identity")


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def assign(dst: np.ndarray, value, name: str) -> None:
    """Write value into dst in place; the shapes must agree exactly."""
    if np.shape(value) != dst.shape:
        raise ShapeError(f"value for {name!r} has shape {np.shape(value)}, "
                         f"parameter has {dst.shape}")
    dst[...] = value


class _Views(list):
    """A list of parameter arrays whose item assignment writes into the
    array in place, so the storage they view stays the source of truth."""

    def __setitem__(self, i, value):
        dst = super().__getitem__(i)
        assign(dst, value, f"item {i}")


class FlatParams:
    """Named parameter arrays stored in one contiguous float64 vector.

    ``shapes`` fixes the layout: the keys are laid out one after another in
    its order, and ``views[key]`` is the reshaped slice of ``vector`` that
    holds ``key``.  Writing through a view writes the vector and vice versa;
    the vector is never reallocated, so views stay valid for its lifetime.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = {k: tuple(int(n) for n in s) for k, s in shapes.items()}
        sizes = [int(np.prod(s, dtype=np.int64)) for s in self.shapes.values()]
        self.ends = np.cumsum(sizes, dtype=np.int64)
        self.vector = np.zeros(int(self.ends[-1]) if sizes else 0)
        self.views: Params = {}
        for (key, shape), end, size in zip(self.shapes.items(), self.ends, sizes):
            self.views[key] = self.vector[end - size:end].reshape(shape)

    def key_at(self, index: int) -> str:
        """The key whose slice holds vector[index]."""
        return list(self.shapes)[int(np.searchsorted(self.ends, index, side="right"))]

    def pack(self, params: Params) -> np.ndarray:
        """A new vector in this layout holding params (same keys and shapes)."""
        for key, shape in self.shapes.items():
            if np.shape(params[key]) != shape:
                raise ShapeError(f"{key!r} has shape {np.shape(params[key])}, "
                                 f"layout has {shape}")
        return np.concatenate([np.ravel(params[k]) for k in self.shapes])


def _activate(name: str, h: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(h, 0.0)
    if name == "tanh":
        return np.tanh(h)
    if name == "identity":
        return h
    raise ConfigError(f"unknown activation {name!r}")


def _activate_grad(name: str, h: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return h > 0.0   # bool mask; upcasts on multiply
    if name == "tanh":
        return 1.0 - a * a
    if name == "identity":
        return np.ones_like(h)
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Mlp:
    """Fully connected net: weights[i] maps widths[i] -> widths[i+1].

    Hidden layers apply ``activation`` (optionally preceded by an affine
    layer norm); the last layer applies ``final_activation`` (identity by
    default, so a zero-weight net returns its last bias).
    """

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    final_activation: str = "identity"
    layer_norm: bool = False
    ln_gains: list[np.ndarray] = field(default_factory=list)
    ln_biases: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def init(cls, widths, rng: np.random.Generator, activation="relu",
             final_activation="identity", layer_norm=False) -> "Mlp":
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ConfigError(f"widths must be >= 2 positive entries, got {widths}")
        if activation not in _HIDDEN_ACTIVATIONS or final_activation not in _HIDDEN_ACTIVATIONS:
            raise ConfigError(f"unknown activation in ({activation!r}, {final_activation!r})")
        weights, biases = [], []
        for din, dout in zip(widths[:-1], widths[1:]):
            # He-style scaling keeps relu stacks in a sane range at init.
            weights.append(rng.normal(0.0, np.sqrt(2.0 / din), size=(din, dout)))
            biases.append(np.zeros(dout))
        n_hidden = len(widths) - 2
        ln_gains = [np.ones(w) for w in widths[1:-1]] if layer_norm else []
        ln_biases = [np.zeros(w) for w in widths[1:-1]] if layer_norm else []
        return cls(widths, weights, biases, activation, final_activation,
                   layer_norm and n_hidden > 0, ln_gains, ln_biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def get_params(self) -> Params:
        params: Params = {}
        for i in range(self.n_layers):
            params[f"w{i}"] = self.weights[i]
            params[f"b{i}"] = self.biases[i]
        if self.layer_norm:
            for i in range(len(self.ln_gains)):
                params[f"ln_g{i}"] = self.ln_gains[i]
                params[f"ln_b{i}"] = self.ln_biases[i]
        return params

    def set_params(self, params: Params) -> None:
        """Copy values into the net's arrays (they are never rebound)."""
        for key, p in self.get_params().items():
            assign(p, params[key], key)

    def bind(self, views: Params) -> None:
        """Move the parameters into caller-owned views (same keys and shapes
        as get_params), e.g. slices of a FlatParams vector.  From then on the
        views are the net's arrays, and item assignment on its lists
        (``net.weights[0] = w``) writes into them."""
        for key, p in self.get_params().items():
            views[key][...] = p
        n = len(self.ln_gains)
        self.weights = _Views(views[f"w{i}"] for i in range(self.n_layers))
        self.biases = _Views(views[f"b{i}"] for i in range(self.n_layers))
        if self.layer_norm:
            self.ln_gains = _Views(views[f"ln_g{i}"] for i in range(n))
            self.ln_biases = _Views(views[f"ln_b{i}"] for i in range(n))

    def copy(self) -> "Mlp":
        return Mlp(self.widths, [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases], self.activation,
                   self.final_activation, self.layer_norm,
                   [g.copy() for g in self.ln_gains],
                   [b.copy() for b in self.ln_biases])


@dataclass
class MlpCache:
    """Activation record from forward(); consumed by backward()."""

    widths: tuple[int, ...]
    layer_norm: bool
    single_input: bool
    inputs: list[np.ndarray]          # input to each layer
    pre_norm: list[np.ndarray]        # affine output before layer norm
    ln_normed: list          # (h - mean) / std per hidden layer, or None
    ln_inv_std: list
    pre_act: list[np.ndarray]         # input to the nonlinearity
    post_act: list[np.ndarray]


_LN_EPS = 1e-6


def forward(net: Mlp, x) -> tuple[np.ndarray, MlpCache]:
    """Run the net on a vector or a (batch, width[0]) matrix.

    Returns the output plus the cache needed for backward().
    """
    x = _as_f64(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.widths[0]:
        raise ShapeError(f"input has shape {x.shape}, expected (*, {net.widths[0]})")
    inputs, pre_norm, ln_normed, ln_inv_std, pre_act, post_act = [], [], [], [], [], []
    for i in range(net.n_layers):
        last = i == net.n_layers - 1
        inputs.append(x)
        h = x @ net.weights[i] + net.biases[i]
        pre_norm.append(h)
        if net.layer_norm and not last:
            mean = h.mean(axis=1, keepdims=True)
            inv_std = 1.0 / np.sqrt(h.var(axis=1, keepdims=True) + _LN_EPS)
            y = (h - mean) * inv_std
            ln_normed.append(y)
            ln_inv_std.append(inv_std)
            h = net.ln_gains[i] * y + net.ln_biases[i]
        else:
            ln_normed.append(None)
            ln_inv_std.append(None)
        pre_act.append(h)
        x = _activate(net.final_activation if last else net.activation, h)
        post_act.append(x)
    cache = MlpCache(net.widths, net.layer_norm, single, inputs, pre_norm,
                     ln_normed, ln_inv_std, pre_act, post_act)
    out = post_act[-1][0] if single else post_act[-1]
    return out, cache


def backward(net: Mlp, cache: MlpCache, output_grad) -> tuple[Params, np.ndarray]:
    """Backpropagate output_grad through a cached forward pass.

    Returns (parameter gradients, gradient with respect to the input).
    """
    if cache.widths != net.widths or cache.layer_norm != net.layer_norm:
        raise UsageError("cache does not match this network (stale or wrong net)")
    g = _as_f64(output_grad)
    if cache.single_input:
        g = g[None, :]
    if g.shape != cache.post_act[-1].shape:
        raise ShapeError(f"output_grad has shape {g.shape}, "
                         f"expected {cache.post_act[-1].shape}")
    grads: Params = {}
    for i in reversed(range(net.n_layers)):
        last = i == net.n_layers - 1
        act = net.final_activation if last else net.activation
        g = g * _activate_grad(act, cache.pre_act[i], cache.post_act[i])
        if net.layer_norm and not last:
            y = cache.ln_normed[i]
            grads[f"ln_b{i}"] = g.sum(axis=0)
            grads[f"ln_g{i}"] = (g * y).sum(axis=0)
            gy = g * net.ln_gains[i]
            g = cache.ln_inv_std[i] * (
                gy - gy.mean(axis=1, keepdims=True)
                - y * (gy * y).mean(axis=1, keepdims=True))
        grads[f"w{i}"] = cache.inputs[i].T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        g = g @ net.weights[i].T
    input_grad = g[0] if cache.single_input else g
    return grads, input_grad


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state: moments per key for a
    parameter dict, or one moment vector each for a FlatParams."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Params | np.ndarray = field(default_factory=dict)
    v: Params | np.ndarray = field(default_factory=dict)

    @classmethod
    def init(cls, params: Params | FlatParams, lr=3e-4, beta1=0.9, beta2=0.999,
             eps=1e-8) -> "AdamState":
        if isinstance(params, FlatParams):
            m, v = np.zeros_like(params.vector), np.zeros_like(params.vector)
        else:
            m = {k: np.zeros_like(p) for k, p in params.items()}
            v = {k: np.zeros_like(p) for k, p in params.items()}
        return cls(lr, beta1, beta2, eps, 0, m, v)


def _adam_update(p, g, m, v, state: AdamState, t: int, weight_decay: float):
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m = state.beta1 * m + (1.0 - state.beta1) * g
    v = state.beta2 * v + (1.0 - state.beta2) * g * g
    update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    if weight_decay:
        update = update + state.lr * weight_decay * p
    return p - update, m, v


def _check_grad(key: str, p: np.ndarray, g: np.ndarray) -> None:
    if g.shape != p.shape:
        raise ShapeError(f"gradient for {key!r} has shape {g.shape}, "
                         f"parameter has {p.shape}")
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient for parameter {key!r}")


def adam_step(params: Params | FlatParams, grads, state: AdamState,
              weight_decay: float = 0.0):
    """One Adam update; decoupled weight decay when weight_decay > 0.

    With a parameter dict, grads is a dict with the same keys and the new
    parameters come back as a dict.  With a FlatParams, grads is one vector
    in its layout and the new parameters come back as one such vector: the
    same elementwise formula in a single pass, with the same per-parameter
    error messages.  Returns (new parameters, new state).
    """
    t = state.step + 1
    if isinstance(params, FlatParams):
        grads = _as_f64(grads)
        if grads.shape != params.vector.shape:
            raise ShapeError(f"gradient vector has shape {grads.shape}, "
                             f"parameters have {params.vector.shape}")
        if not np.all(np.isfinite(grads)):
            key = params.key_at(int(np.argmin(np.isfinite(grads))))
            raise NumericError(f"non-finite gradient for parameter {key!r}")
        new_params, new_m, new_v = _adam_update(
            params.vector, grads, state.m, state.v, state, t, weight_decay)
    else:
        new_params, new_m, new_v = {}, {}, {}
        for key, p in params.items():
            _check_grad(key, p, grads[key])
            new_params[key], new_m[key], new_v[key] = _adam_update(
                p, grads[key], state.m[key], state.v[key], state, t,
                weight_decay)
    return new_params, AdamState(state.lr, state.beta1, state.beta2, state.eps,
                                 t, new_m, new_v)


def soft_update(target_params: Params | FlatParams,
                online_params: Params | FlatParams, rho: float):
    """Polyak average: target <- rho * target + (1 - rho) * online.

    Key by key for two parameter dicts (returns a dict); in one pass over
    the vectors for two FlatParams of the same layout (returns a vector).
    """
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must lie in [0, 1], got {rho}")
    if isinstance(target_params, FlatParams):
        if target_params.shapes != online_params.shapes:
            raise ShapeError("target/online layouts differ")
        return rho * target_params.vector + (1.0 - rho) * online_params.vector
    out: Params = {}
    for key, t in target_params.items():
        o = online_params[key]
        if o.shape != t.shape:
            raise ShapeError(f"target/online shapes differ for {key!r}")
        out[key] = rho * t + (1.0 - rho) * o
    return out


# ---------------------------------------------------------------------------
# Parameter file format: uint64 little-endian header length, JSON header with
# the entry order and shapes, then the raw float64 little-endian payload.

_HEADER_LEN_BYTES = 8


def save_params(path, params: Params, meta: dict | None = None) -> None:
    entries = [{"name": k, "shape": list(v.shape)} for k, v in params.items()]
    header = {"kind": "rvf-params", "version": 1, "entries": entries,
              "meta": meta or {}}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(len(blob).to_bytes(_HEADER_LEN_BYTES, "little"))
        f.write(blob)
        for v in params.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_params(path) -> tuple[Params, dict]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER_LEN_BYTES:
        raise FormatError("file too short for header length", offset=len(raw))
    hlen = int.from_bytes(raw[:_HEADER_LEN_BYTES], "little")
    if len(raw) < _HEADER_LEN_BYTES + hlen:
        raise FormatError("truncated header", offset=len(raw))
    try:
        header = json.loads(raw[_HEADER_LEN_BYTES:_HEADER_LEN_BYTES + hlen])
    except json.JSONDecodeError as e:
        raise FormatError(f"corrupt JSON header: {e}", offset=_HEADER_LEN_BYTES) from e
    if header.get("kind") != "rvf-params":
        raise FormatError("not a parameter file", offset=_HEADER_LEN_BYTES)
    params: Params = {}
    pos = _HEADER_LEN_BYTES + hlen
    for entry in header["entries"]:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        if len(raw) < pos + nbytes:
            raise FormatError(f"truncated payload for {entry['name']!r}", offset=len(raw))
        flat = np.frombuffer(raw[pos:pos + nbytes], dtype="<f8")
        params[entry["name"]] = flat.reshape(shape).astype(np.float64)
        pos += nbytes
    if pos != len(raw):
        raise FormatError("trailing bytes after payload", offset=pos)
    return params, header.get("meta", {})
