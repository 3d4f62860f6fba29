"""Dense MLP forward/backward, flat parameter storage, Adam, Polyak
averaging, and the one binary file envelope (parameter and dataset files).

Everything is float64.  Adam and Polyak are pure: they take explicit state
and return new state, so callers can replay any step.  A model keeps all
its parameters in one FlatParams vector, with its named arrays as views of
it, so that each update is one elementwise pass over the whole model.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
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
    """Bias-corrected adaptive-moment optimizer state: one first- and one
    second-moment vector in the layout of a FlatParams."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def init(cls, params: FlatParams, lr=3e-4, beta1=0.9, beta2=0.999,
             eps=1e-8) -> "AdamState":
        return cls(lr, beta1, beta2, eps, 0, np.zeros_like(params.vector),
                   np.zeros_like(params.vector))


def adam_step(params: FlatParams, grads, state: AdamState,
              weight_decay: float = 0.0) -> tuple[np.ndarray, AdamState]:
    """One Adam update over a FlatParams; decoupled weight decay when
    weight_decay > 0.

    grads is one vector in the layout of params.  Returns (new parameter
    vector, new state); a non-finite gradient raises NumericError naming the
    parameter it belongs to.
    """
    grads = _as_f64(grads)
    if grads.shape != params.vector.shape:
        raise ShapeError(f"gradient vector has shape {grads.shape}, "
                         f"parameters have {params.vector.shape}")
    if not np.all(np.isfinite(grads)):
        key = params.key_at(int(np.argmin(np.isfinite(grads))))
        raise NumericError(f"non-finite gradient for parameter {key!r}")
    t = state.step + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    if weight_decay:
        update = update + state.lr * weight_decay * params.vector
    return params.vector - update, AdamState(state.lr, state.beta1, state.beta2,
                                             state.eps, t, m, v)


def soft_update(target_params: FlatParams, online_params: FlatParams,
                rho: float) -> np.ndarray:
    """Polyak average over two FlatParams of the same layout: the new target
    vector rho * target + (1 - rho) * online."""
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must lie in [0, 1], got {rho}")
    if target_params.shapes != online_params.shapes:
        raise ShapeError("target/online layouts differ")
    return rho * target_params.vector + (1.0 - rho) * online_params.vector


# ---------------------------------------------------------------------------
# File envelope of parameter and dataset files: uint64 little-endian header
# length, compact sorted-key JSON header, then the raw <f8 arrays in order.

_HEADER_LEN_BYTES = 8


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to path + ".tmp", then move that over path.

    A crash or an exception mid-write leaves the previous file at path as it
    was (the partial temporary file is removed on an exception).
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# Field checks: (predicate, what the field must be).
INT = (_is_int, "an int")
COUNT = (lambda x: _is_int(x) and x >= 0, "an int >= 0")
POSITIVE = (lambda x: _is_int(x) and x >= 1, "an int >= 1")
WIDTHS = (lambda x: isinstance(x, list) and all(POSITIVE[0](n) for n in x),
          "a list of ints >= 1")
FINITE = (lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool)
          and math.isfinite(x), "a finite number")
FINITE_LIST = (lambda x: isinstance(x, list) and all(FINITE[0](n) for n in x),
               "a list of finite numbers")
OBJECT = (lambda x: isinstance(x, dict), "a JSON object")
ENTRIES = (lambda x: isinstance(x, list) and all(
    isinstance(e, dict) and isinstance(e.get("name"), str)
    and isinstance(e.get("shape"), list) and all(COUNT[0](n) for n in e["shape"])
    for e in x), "a list of {name: str, shape: [int >= 0, ...]}")


def check_fields(obj: dict, schema: dict, where: str, offset=None) -> None:
    """FormatError unless obj has every field of schema ({name: check}) and
    each passes its check."""
    for name, (ok, what) in schema.items():
        if name not in obj:
            raise FormatError(f"{where} has no {name!r} field", offset=offset)
        if not ok(obj[name]):
            raise FormatError(f"{where} field {name!r} must be {what}, "
                              f"got {repr(obj[name])[:60]}", offset=offset)


def write_envelope(path, header: dict, arrays) -> None:
    """Write header and the arrays, as float64 in order, as one file."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, itertools.chain(
        [len(blob).to_bytes(_HEADER_LEN_BYTES, "little"), blob],
        (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)))


def read_envelope(path, kind: str, schema: dict, layout) -> tuple[dict, Params]:
    """(header, {name: float64 array}) from a write_envelope file whose
    header is a JSON object of this kind that passes check_fields(schema), and
    whose payload holds exactly the (name, shape) arrays layout(header) lists."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER_LEN_BYTES:
        raise FormatError("file too short for header length", offset=len(raw))
    pos = _HEADER_LEN_BYTES + int.from_bytes(raw[:_HEADER_LEN_BYTES], "little")
    if len(raw) < pos:
        raise FormatError("truncated header", offset=len(raw))
    try:
        header = json.loads(raw[_HEADER_LEN_BYTES:pos])
    except (ValueError, RecursionError) as e:
        raise FormatError(f"corrupt JSON header: {e}", offset=_HEADER_LEN_BYTES) from e
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise FormatError(f"not an {kind} file", offset=_HEADER_LEN_BYTES)
    check_fields(header, schema, "header", offset=_HEADER_LEN_BYTES)
    arrays: Params = {}
    for name, shape in layout(header):
        nbytes = 8 * math.prod(shape)
        if len(raw) < pos + nbytes:
            raise FormatError(f"truncated payload in {name!r}", offset=len(raw))
        flat = np.frombuffer(raw[pos:pos + nbytes], dtype="<f8")
        try:
            arrays[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as e:   # e.g. (0, 2**70): empty, but no ndarray
            raise FormatError(f"shape {shape} of {name!r}: {e}",
                              offset=_HEADER_LEN_BYTES) from e
        pos += nbytes
    if pos != len(raw):
        raise FormatError("trailing bytes after payload", offset=pos)
    return header, arrays


def save_params(path, params: Params, meta: dict | None = None) -> None:
    entries = [{"name": k, "shape": list(v.shape)} for k, v in params.items()]
    write_envelope(path, {"kind": "rvf-params", "version": 1, "entries": entries,
                          "meta": meta or {}}, params.values())


def load_params(path) -> tuple[Params, dict]:
    header, params = read_envelope(
        path, "rvf-params", {"entries": ENTRIES, "meta": OBJECT},
        lambda h: [(e["name"], tuple(e["shape"])) for e in h["entries"]])
    return params, header["meta"]


def check_checkpoint(meta: dict, kind: str, schema: dict) -> None:
    """FormatError unless a parameter file's meta names it a kind
    checkpoint and has the fields schema lists."""
    if meta.get("kind") != kind:
        raise FormatError(f"not a {kind} checkpoint (its meta kind is "
                          f"{meta.get('kind')!r})")
    check_fields(meta, schema, f"{kind} checkpoint meta")


def check_layout(params: Params, model: Params, kind: str) -> None:
    """FormatError unless params has exactly the model's keys and shapes."""
    odd = sorted(params.keys() ^ model.keys())
    if odd:
        where = "has no" if odd[0] in model else "has an unexpected"
        raise FormatError(f"{kind} checkpoint {where} entry {odd[0]!r}")
    for key, p in model.items():
        if params[key].shape != p.shape:
            raise FormatError(f"{kind} checkpoint entry {key!r} has shape "
                              f"{params[key].shape}, the model its meta "
                              f"describes has {p.shape}")
