"""Reverse-mode automatic differentiation over dense float64 tensors.

The computation graph is a tape of operation records built during the
forward pass; recorded tensors are never mutated in place, and the tape is
rebuilt from scratch on every forward pass. Backward rules are themselves
composed from the public ops, so running :func:`grad` with
``create_graph=True`` produces gradients that are graph nodes and can be
differentiated again. This is what lets a learner differentiate through its
own adaptation step.

Recording is per thread: :func:`no_grad` turns it off, :func:`enable_grad`
back on, and :func:`is_grad_enabled` reports it, so a caller that only wants
values can skip work that exists for a later backward pass (the learners'
inner loop is first order then). A vjp that runs without recording, as every
``grad`` without ``create_graph`` does, may work on plain arrays;
``softmax_cross_entropy``'s does, with the float sequence of its op path, so
a gradient has the same bits whether or not its graph is built.

Supported ops: ``add``, ``sub``, ``mul`` (elementwise; one operand may be a
scalar tensor of shape ``()``, and ``add`` also broadcasts a ``(1, n)`` bias
row over an ``(m, n)`` operand, or a ``(B, 1, n)`` one over ``(B, m, n)``),
``smul`` (multiplication by a Python float), ``matmul`` (2-D, or 3-D
``(B, ...)`` operands multiplied episode by episode, with optional
transposition of the last two axes; an outer product, whose contracted
dimension is 1, is a broadcast with the product's bits), ``reshape``,
``tile`` (copies of a tensor along a new leading axis, e.g. one set of
fast weights per episode), ``relu``, ``exp``, ``log``, ``sum``, ``mean``
(of all entries, or of each row), ``sqdist`` (pairwise squared Euclidean
distance, 2-D or 3-D, as norms minus twice one batched matrix product,
clamped at 0, so within a norm-scaled tolerance of the difference
formula), and ``softmax_cross_entropy`` (fused, max-stabilized). Every
operand is a :class:`Tensor`; constants are wrapped with :func:`tensor`.
State that only a backward pass reads (masks, one-hot labels) is built
inside the vjp, so a forward under :func:`no_grad` never pays for it.

A :func:`grad` call is one reverse sweep of the tape in creation order:
each record draws its place after its inputs exist, so it comes after
them, and a tensor sums its consumers' contributions from the latest to
the earliest. A call costs the part of the tape between its output and its
requested inputs: the walk stops at records older than the oldest
requested input, and only vjps on a path to a requested input run. The
``exp`` and ``log`` vjps hold their own output through a weak reference,
so a tape has no reference cycles and is freed by refcount as soon as its
last tensor is dropped.

Each graph is single-threaded; independent graphs may live on different
threads. Pass only arrays (a tensor's ``data``) between threads.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeMismatchError(AutodiffError):
    def __init__(self, op: str, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")


class DomainError(AutodiffError):
    """Raised when an op is evaluated outside its mathematical domain."""


class GraphError(AutodiffError):
    """Raised for invalid backward requests."""


_state = threading.local()


def is_grad_enabled() -> bool:
    """True when ops record onto the tape in this thread: the default, or
    inside :func:`enable_grad`; False inside :func:`no_grad`. A caller that
    only wants values can read it to skip work that exists for a later
    backward pass."""
    return getattr(_state, "enabled", True)


@contextmanager
def _recording(enabled: bool):
    """Graph recording on or off within the block."""
    prev = is_grad_enabled()
    _state.enabled = enabled
    try:
        yield
    finally:
        _state.enabled = prev


def no_grad():
    """Disable graph recording within the block."""
    return _recording(False)


def enable_grad():
    """Force graph recording within the block (undoes an enclosing no_grad)."""
    return _recording(True)


# Creation order of tape records, shared by all threads (``next`` on it is
# atomic); a leaf counts as 0.
_sequence = itertools.count(1)


class Node:
    """One tape record: the op tag, its input tensors, per-input vjps and
    its place in creation order."""

    __slots__ = ("op", "inputs", "vjps", "seq")

    def __init__(self, op: str, inputs: tuple, vjps: tuple):
        self.op = op
        self.inputs = inputs
        self.vjps = vjps
        self.seq = next(_sequence)


class Tensor:
    """Dense float64 array with an optional link into the tape."""

    __slots__ = ("data", "requires_grad", "node", "__weakref__")

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
    if is_grad_enabled() and any(t.requires_grad for t in inputs):
        return Tensor(out_data, requires_grad=True, node=Node(op, tuple(inputs), tuple(vjps)))
    return Tensor(out_data)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeMismatchError(op, a.shape, b.shape)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def _is_row_over(row: tuple, full: tuple) -> bool:
    """True when ``row`` is a (1, n) bias row that broadcasts over an (m, n)
    ``full``, or a (B, 1, n) one over a (B, m, n) ``full``."""
    return (
        len(row) == len(full)
        and len(full) in (2, 3)
        and row[:-2] == full[:-2]
        and row[-2] == 1
        and row[-1] == full[-1]
    )


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
    return matmul(_ones(g.shape[:-2] + (1, g.shape[-2])), g)


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
    leading index at a time; ``ta``/``tb`` transpose the last two axes.

    An outer product (a contracted dimension of 1: a column times a row,
    as in the ones-row broadcasts of the vjps) is computed by broadcasting,
    ``av * bv + 0.0``. That is the one product ``av @ bv`` forms, and the
    ``+ 0.0`` turns a -0.0 into +0.0 as its zero-started sum does, so the
    result has the same bits, ±0, inf, NaN and subnormals included."""
    av, bv = a.data, b.data
    if av.ndim != bv.ndim or av.ndim not in (2, 3):
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if ta:
        av = av.swapaxes(-1, -2)
    if tb:
        bv = bv.swapaxes(-1, -2)
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatchError("matmul", av.shape, bv.shape)
    out = av * bv + 0.0 if av.shape[-1] == 1 else av @ bv

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


def tile(a: Tensor, count: int) -> Tensor:
    """``count`` copies of ``a`` along a new leading axis: shape
    ``(count, *a.shape)``."""
    count = int(count)
    shape = a.shape
    out = np.repeat(a.data[np.newaxis], count, axis=0)

    def va(g):
        # Sum over the copies, as a ones row times g, so the vjp stays an op.
        return reshape(matmul(_ones((1, count)), reshape(g, (count, -1))), shape)

    return _make("tile", out, (a,), (va,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def va(g):
        return mul(g, Tensor((out > 0.0).astype(np.float64)))

    return _make("relu", out, (a,), (va,))


def exp(a: Tensor) -> Tensor:
    # The vjp reads the op's own output through a weak reference, so the
    # tape holds no cycle and is freed by refcount. The output is alive
    # whenever the vjp runs: the backward pass holds it.
    def va(g):
        return mul(g, out())

    result = _make("exp", np.exp(a.data), (a,), (va,))
    out = weakref.ref(result)
    return result


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: input has non-positive entries")

    def va(g):
        # 1/x == exp(-log(x)), reusing the op's own output (weakly held, as
        # in exp) keeps the reciprocal differentiable for second-order passes.
        return mul(g, exp(smul(-1.0, out())))

    result = _make("log", np.log(a.data), (a,), (va,))
    out = weakref.ref(result)
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
    (B, m, d) x (B, n, d) -> (B, m, n) for every leading index at once.

    One ``kernels.pairwise_sqdist`` call computes
    ``max(|x_i|^2 + |y_j|^2 - 2 x_i.y_j, 0)``, the cross term as one
    batched matrix product. An entry is within
    ``4 * (d + 2) * eps * (|x_i|^2 + |y_j|^2)`` of ``sum((x_i - y_j)**2)``,
    not within a few ulps of it: close rows cancel. The vjps are those of
    the unclamped formula: ``2 (rowsum(g) x - g y)`` for x and
    ``2 (colsum(g) y - g^T x)`` for y."""
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
    out = kernels.pairwise_sqdist(x.data, y.data)

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

    The vjp rebuilds the softmax as ``e * exp(-log(e @ 1))`` with ``e`` the
    exponentiated shifted logits. When recording it does so from ops, so the
    gradient can be differentiated again; otherwise it replays the same
    float sequence on plain arrays. Both modes give the same bits, so a
    first-order inner loop adapts exactly as a second-order one does.
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
    loss, e_data = kernels.softmax_xent(np.ascontiguousarray(logits.data), labels)

    def vlogits(g):
        onehot = np.zeros((m, n), dtype=np.float64)
        onehot[np.arange(m), labels] = 1.0
        if not is_grad_enabled():
            # The op path below, step for step, on arrays, starting from the
            # kernel's exponentiated shifted logits. A product with a ones
            # row only copies a column across, so broadcasting the column
            # gives the same bits.
            rz = np.exp(-1.0 * np.log(e_data @ np.ones((n, 1))))
            return Tensor(g.data * (e_data * rz - onehot))
        # Second-order path: rebuild the softmax from ops so the vjp is
        # itself differentiable with respect to the logits.
        rowmax = logits.data.max(axis=1, keepdims=True)
        shifted = sub(logits, Tensor(np.repeat(rowmax, n, axis=1)))
        e = exp(shifted)
        z = matmul(e, _ones((n, 1)))
        rz = exp(smul(-1.0, log(z)))
        s = mul(e, matmul(rz, _ones((1, n))))
        gm = matmul(g, _ones((1, n)))
        return mul(gm, sub(s, Tensor(onehot)))

    return _make("softmax_cross_entropy", loss, (logits,), (vlogits,))


def _seq(t: Tensor) -> int:
    """``t``'s place in creation order: its record's, or 0 for a leaf."""
    return t.node.seq if t.node is not None else 0


def _topo_order(output: Tensor, floor: int) -> list[Tensor]:
    """Tensors reachable from ``output`` through grad-requiring inputs
    recorded no earlier than ``floor``, sorted into creation order."""
    reached = {id(output): output}
    stack = [output]
    while stack:
        node = stack.pop().node
        if node is None:
            continue
        for inp in node.inputs:
            if inp.requires_grad and id(inp) not in reached and _seq(inp) >= floor:
                reached[id(inp)] = inp
                stack.append(inp)
    return sorted(reached.values(), key=_seq)


def grad(
    output: Tensor,
    inputs: Iterable[Tensor],
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Gradients of ``output`` with respect to each tensor in ``inputs``.

    Inputs may be leaves or interior graph tensors. With ``create_graph``
    the returned gradients are differentiable graph tensors themselves.
    A call walks only the tape recorded since the oldest requested input
    and runs only the vjps on paths from ``output`` to a requested input,
    so an inner-loop gradient with respect to the latest fast weights does
    not grow with the number of earlier steps. The sweep runs in reverse
    creation order, so a tensor's gradient sums its consumers'
    contributions from the latest consumer to the earliest.
    """
    inputs = list(inputs)
    if output.shape != ():
        raise GraphError(f"backward requires a scalar output, got shape {output.shape}")
    # A tensor on a path from the output to an input consumes that input, so
    # it was recorded after it: nothing older than the oldest input is walked.
    order = _topo_order(output, min(map(_seq, inputs), default=0))
    # Mark every tensor that leads to a requested input; only vjps into
    # marked tensors run.
    wanted = {id(t) for t in inputs}
    for t in order:
        if t.node is not None and any(id(inp) in wanted for inp in t.node.inputs):
            wanted.add(id(t))
    # Keyed by id: ``order`` holds every keyed tensor, so no id is reused.
    grads = {id(output): Tensor(1.0)}
    with nullcontext() if create_graph else no_grad():
        for t in reversed(order):
            g = grads.get(id(t))
            if g is None or t.node is None:
                continue
            for inp, vjp in zip(t.node.inputs, t.node.vjps):
                if inp.requires_grad and id(inp) in wanted:
                    contrib = vjp(g)
                    prev = grads.get(id(inp))
                    grads[id(inp)] = contrib if prev is None else add(prev, contrib)
    result = []
    for t in inputs:
        g = grads.get(id(t))
        if g is None:
            if not allow_unused:
                raise GraphError("input tensor does not contribute to the output")
            g = Tensor(np.zeros(t.shape))
        result.append(g)
    return result
