"""Reverse-mode automatic differentiation over dense float64 tensors.

The computation graph is a tape of operation records built during the
forward pass; recorded tensors are never mutated in place, and the tape is
rebuilt from scratch on every forward pass. Backward rules are themselves
composed from the public ops, so running :func:`grad` with
``create_graph=True`` produces gradients that are graph nodes and can be
differentiated again. This is what lets a learner differentiate through its
own adaptation step.

Supported ops: ``add``, ``sub``, ``mul`` (elementwise; one operand may be a
scalar tensor of shape ``()``, and ``add`` also broadcasts a ``(1, n)`` bias
row over an ``(m, n)`` operand), ``smul`` (multiplication by a Python
float), ``matmul`` (2-D, or 3-D ``(B, ...)`` operands multiplied episode by
episode, with optional transposition of the last two axes), ``reshape``,
``stack`` (equal-shaped tensors along a new leading axis), ``relu``,
``exp``, ``log``, ``sum``, ``mean`` (of all entries, or of each row),
``sqdist`` (pairwise squared Euclidean distance, 2-D or 3-D), and
``softmax_cross_entropy`` (fused, max-stabilized). Every operand is a
:class:`Tensor`; constants are wrapped with :func:`tensor`. State that only
a backward pass reads (masks, one-hot labels) is built inside the vjp, so a
forward under :func:`no_grad` never pays for it.

Each graph is single-threaded; independent graphs may live on different
threads. Pass only arrays (a tensor's ``data``) between threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeMismatchError(AutodiffError):
    def __init__(self, op: str, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")
        self.op = op
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)


class DomainError(AutodiffError):
    """Raised when an op is evaluated outside its mathematical domain."""


class GraphError(AutodiffError):
    """Raised for malformed graphs or invalid backward requests."""


class NonFiniteError(AutodiffError):
    """Raised when a numeric check encounters NaN or infinity."""


_state = threading.local()


def _recording() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording within the block."""
    prev = _recording()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


@contextmanager
def enable_grad():
    """Force graph recording within the block (undoes an enclosing no_grad)."""
    prev = _recording()
    _state.enabled = True
    try:
        yield
    finally:
        _state.enabled = prev


class Node:
    """One tape record: the op tag, its input tensors, and per-input vjps."""

    __slots__ = ("op", "inputs", "vjps")

    def __init__(self, op: str, inputs: tuple, vjps: tuple):
        self.op = op
        self.inputs = inputs
        self.vjps = vjps


class Tensor:
    """Dense float64 array with an optional link into the tape."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, node: Node | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if self.node is not None:
            flags.append(self.node.op)
        tag = f" [{', '.join(flags)}]" if flags else ""
        return f"Tensor(shape={self.shape}{tag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _make(op: str, out_data: np.ndarray, inputs: Sequence[Tensor], vjps: Sequence) -> Tensor:
    if _recording() and any(t.requires_grad for t in inputs):
        return Tensor(out_data, requires_grad=True, node=Node(op, tuple(inputs), tuple(vjps)))
    return Tensor(out_data)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeMismatchError(op, a.shape, b.shape)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def _is_row_over(row: tuple, full: tuple) -> bool:
    """True when ``row`` is a (1, n) bias row that broadcasts over an (m, n)
    ``full``."""
    return len(row) == 2 and len(full) == 2 and row[0] == 1 and row[1] == full[1]


def _unbroadcast(shape: tuple, out_shape: tuple) -> Callable[[Tensor], Tensor]:
    """Map from the gradient of a broadcast result to the gradient of an
    operand of ``shape``: the identity, a full sum, or a sum over rows."""
    if shape == out_shape:
        return _identity
    if shape == ():
        return sum
    return _sum_rows


def _identity(g: Tensor) -> Tensor:
    return g


def _sum_rows(g: Tensor) -> Tensor:
    return matmul(_ones((1, g.shape[0])), g)


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and not (_is_row_over(sa, sb) or _is_row_over(sb, sa)):
        _check_elementwise("add", a, b)
    out = a.data + b.data
    return _make("add", out, (a, b), (_unbroadcast(sa, out.shape), _unbroadcast(sb, out.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)
    out = a.data - b.data
    reduce_b = _unbroadcast(b.shape, out.shape)

    def vb(g):
        return reduce_b(smul(-1.0, g))

    return _make("sub", out, (a, b), (_unbroadcast(a.shape, out.shape), vb))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    out = a.data * b.data
    reduce_a = _unbroadcast(a.shape, out.shape)
    reduce_b = _unbroadcast(b.shape, out.shape)

    def va(g):
        return reduce_a(mul(g, b))

    def vb(g):
        return reduce_b(mul(g, a))

    return _make("mul", out, (a, b), (va, vb))


def smul(c: float, a: Tensor) -> Tensor:
    c = float(c)
    out = c * a.data

    def va(g):
        return smul(c, g)

    return _make("smul", out, (a,), (va,))


def matmul(a: Tensor, b: Tensor, ta: bool = False, tb: bool = False) -> Tensor:
    """Matrix product of 2-D operands, or of 3-D ``(B, ...)`` operands one
    leading index at a time; ``ta``/``tb`` transpose the last two axes."""
    av, bv = a.data, b.data
    if av.ndim != bv.ndim or av.ndim not in (2, 3):
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if ta:
        av = av.swapaxes(-1, -2)
    if tb:
        bv = bv.swapaxes(-1, -2)
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatchError("matmul", av.shape, bv.shape)
    out = av @ bv

    def va(g):
        if ta:
            return matmul(b, g, ta=tb, tb=True)
        return matmul(g, b, tb=not tb)

    def vb(g):
        if tb:
            return matmul(g, a, ta=True, tb=ta)
        return matmul(a, g, ta=not ta)

    return _make("matmul", out, (a, b), (va, vb))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def va(g):
        return reshape(g, in_shape)

    return _make("reshape", out, (a,), (va,))


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Equal-shaped tensors stacked along a new leading axis."""
    tensors = tuple(tensors)
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeMismatchError("stack", shape, t.shape)
    count = len(tensors)
    out = np.stack([t.data for t in tensors])

    def picker(i):
        def vi(g):
            # Slice i of g, as a one-hot row times g, so the vjp stays an op.
            onehot = np.zeros((1, count))
            onehot[0, i] = 1.0
            return reshape(matmul(Tensor(onehot), reshape(g, (count, -1))), shape)

        return vi

    return _make("stack", out, tensors, tuple(picker(i) for i in range(count)))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def va(g):
        return mul(g, Tensor((out > 0.0).astype(np.float64)))

    return _make("relu", out, (a,), (va,))


def exp(a: Tensor) -> Tensor:
    out_holder: list[Tensor] = []

    def va(g):
        return mul(g, out_holder[0])

    result = _make("exp", np.exp(a.data), (a,), (va,))
    out_holder.append(result)
    return result


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: input has non-positive entries")
    out_holder: list[Tensor] = []

    def va(g):
        # 1/x == exp(-log(x)), reusing the op's own output keeps the
        # reciprocal differentiable for second-order passes.
        return mul(g, exp(smul(-1.0, out_holder[0])))

    result = _make("log", np.log(a.data), (a,), (va,))
    out_holder.append(result)
    return result


def sum(a: Tensor) -> Tensor:  # noqa: A001 - mirrors the numpy reduction name
    out = np.float64(a.data.sum())
    shape = a.shape

    def va(g):
        return mul(g, _ones(shape))

    return _make("sum", out, (a,), (va,))


def mean(a: Tensor, rows: bool = False) -> Tensor:
    """Mean of all entries, or with ``rows`` the (m,) means of an (m, n)
    tensor's rows (each the same float as ``mean`` of that row alone)."""
    if a.size == 0:
        raise DomainError("mean: empty tensor")
    shape, n = a.shape, a.size
    if not rows:
        out = np.float64(a.data.mean())

        def va(g):
            return mul(smul(1.0 / n, g), _ones(shape))

        return _make("mean", out, (a,), (va,))
    if a.data.ndim != 2:
        raise ShapeMismatchError("mean", a.shape, ("m", "n"))
    m, width = shape
    out = a.data.mean(axis=1)

    def vrows(g):
        return smul(1.0 / width, matmul(reshape(g, (m, 1)), _ones((1, width))))

    return _make("mean", out, (a,), (vrows,))


def sqdist(x: Tensor, y: Tensor) -> Tensor:
    """Pairwise squared Euclidean distances: (m, d) x (n, d) -> (m, n), or
    (B, m, d) x (B, n, d) -> (B, m, n) one leading index at a time."""
    if (
        x.data.ndim != y.data.ndim
        or x.data.ndim not in (2, 3)
        or x.shape[:-2] != y.shape[:-2]
        or x.shape[-1] != y.shape[-1]
    ):
        raise ShapeMismatchError("sqdist", x.shape, y.shape)
    lead = x.shape[:-2]
    m, d = x.shape[-2:]
    n = y.shape[-2]
    xs = np.ascontiguousarray(x.data).reshape((-1, m, d))
    ys = np.ascontiguousarray(y.data).reshape((-1, n, d))
    out = np.empty((xs.shape[0], m, n))
    for i in range(xs.shape[0]):
        out[i] = kernels.pairwise_sqdist(xs[i], ys[i])
    out = out.reshape(lead + (m, n))

    def vx(g):
        rows = matmul(g, _ones(lead + (n, 1)))
        scale = matmul(rows, _ones(lead + (1, d)))
        return smul(2.0, sub(mul(scale, x), matmul(g, y)))

    def vy(g):
        cols = matmul(g, _ones(lead + (m, 1)), ta=True)
        scale = matmul(cols, _ones(lead + (1, d)))
        return smul(2.0, sub(mul(scale, y), matmul(g, x, ta=True)))

    return _make("sqdist", out, (x, y), (vx, vy))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy of softmax(logits) against integer labels.

    Returns an (m, 1) column of losses. Fused and stabilized by subtracting
    the row max, which is exact for softmax (row-uniform shifts lie in the
    kernel of every softmax derivative).
    """
    if logits.data.ndim != 2:
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape, ("m", "n"))
    labels = np.asarray(labels)
    m, n = logits.shape
    if labels.shape != (m,):
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape, labels.shape)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("softmax_cross_entropy: labels must be integers")
    if labels.min() < 0 or labels.max() >= n:
        raise DomainError(f"softmax_cross_entropy: label outside [0, {n})")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    loss, probs = kernels.softmax_xent(np.ascontiguousarray(logits.data), labels)

    def vlogits(g):
        onehot = np.zeros((m, n), dtype=np.float64)
        onehot[np.arange(m), labels] = 1.0
        if not _recording():
            return Tensor((probs - onehot) * g.data)
        # Second-order path: rebuild the softmax from ops so the vjp is
        # itself differentiable with respect to the logits.
        rowmax = Tensor(np.broadcast_to(logits.data.max(axis=1, keepdims=True), (m, n)).copy())
        shifted = sub(logits, rowmax)
        e = exp(shifted)
        z = matmul(e, _ones((n, 1)))
        rz = exp(smul(-1.0, log(z)))
        s = mul(e, matmul(rz, _ones((1, n))))
        gm = matmul(g, _ones((1, n)))
        return mul(gm, sub(s, Tensor(onehot)))

    return _make("softmax_cross_entropy", loss, (logits,), (vlogits,))


def _topo_order(output: Tensor) -> list[Tensor]:
    """Tensors reachable from ``output`` through grad-requiring inputs,
    in an order where every tensor precedes the tensors it consumes."""
    order: list[Tensor] = []
    visited: set[int] = set()
    on_stack: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        t, processed = stack.pop()
        tid = id(t)
        if processed:
            on_stack.discard(tid)
            order.append(t)
            continue
        if tid in visited:
            if tid in on_stack:
                raise GraphError("cycle detected in computation graph")
            continue
        visited.add(tid)
        on_stack.add(tid)
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))
                elif id(inp) in on_stack:
                    raise GraphError("cycle detected in computation graph")
    return order


def _backward_map(output: Tensor, create_graph: bool) -> dict[int, tuple[Tensor, Tensor]]:
    if output.shape != ():
        raise GraphError(f"backward requires a scalar output, got shape {output.shape}")
    order = _topo_order(output)
    grads: dict[int, tuple[Tensor, Tensor]] = {id(output): (output, Tensor(1.0))}

    def run():
        for t in reversed(order):
            entry = grads.get(id(t))
            if entry is None or t.node is None:
                continue
            g = entry[1]
            for inp, vjp in zip(t.node.inputs, t.node.vjps):
                if vjp is None or not inp.requires_grad:
                    continue
                contrib = vjp(g)
                prev = grads.get(id(inp))
                if prev is None:
                    grads[id(inp)] = (inp, contrib)
                else:
                    grads[id(inp)] = (inp, add(prev[1], contrib))

    if create_graph:
        run()
    else:
        with no_grad():
            run()
    return grads


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Gradients of ``output`` with respect to each tensor in ``inputs``.

    Inputs may be leaves or interior graph tensors. With ``create_graph``
    the returned gradients are differentiable graph tensors themselves.
    """
    grads = _backward_map(output, create_graph)
    result = []
    for t in inputs:
        entry = grads.get(id(t))
        if entry is None:
            if not allow_unused:
                raise GraphError("input tensor does not contribute to the output")
            result.append(Tensor(np.zeros(t.shape)))
        else:
            result.append(entry[1])
    return result


def grad_check(
    f: Callable[..., Tensor],
    inputs: Iterable[Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients of ``f`` and central
    finite differences, coordinate by coordinate.

    ``f`` must map the given leaf tensors to a scalar tensor. The error for
    a coordinate is ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise DomainError(f"grad_check: epsilon {epsilon} outside [1e-6, 1e-3]")
    inputs = list(inputs)
    out = f(*inputs)
    if out.shape != ():
        raise GraphError("grad_check: f must return a scalar tensor")
    analytic = grad(out, inputs, allow_unused=True)
    max_err = 0.0
    base = [t.data.copy() for t in inputs]
    flags = [t.requires_grad for t in inputs]
    for i, t in enumerate(inputs):
        flat_analytic = analytic[i].data.reshape(-1)
        for j in range(t.size):
            # f is re-evaluated with recording on: it may take gradients
            # internally (e.g. an adaptation step), so no_grad would break it.
            shifted = [Tensor(b, requires_grad=r) for b, r in zip(base, flags)]
            plus = base[i].copy().reshape(-1)
            plus[j] += epsilon
            minus = base[i].copy().reshape(-1)
            minus[j] -= epsilon
            shifted[i] = Tensor(plus.reshape(t.shape), requires_grad=flags[i])
            f_plus = f(*shifted).item()
            shifted[i] = Tensor(minus.reshape(t.shape), requires_grad=flags[i])
            f_minus = f(*shifted).item()
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = flat_analytic[j]
            if not (np.isfinite(a) and np.isfinite(numeric)):
                raise NonFiniteError("grad_check: non-finite value encountered")
            err = abs(a - numeric) / max(1.0, abs(a))
            if err > max_err:
                max_err = err
    return max_err
