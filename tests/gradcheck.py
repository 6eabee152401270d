"""Finite-difference check of the autodiff engine's gradients, for tests."""

from typing import Callable, Iterable

import numpy as np

from episampler import autodiff as ad


class NonFiniteError(ad.AutodiffError):
    """Raised when a numeric check encounters NaN or infinity."""


def grad_check(
    f: Callable[..., ad.Tensor],
    inputs: Iterable[ad.Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients of ``f`` and central
    finite differences, coordinate by coordinate.

    ``f`` must map the given leaf tensors to a scalar tensor. The error for
    a coordinate is ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ad.DomainError(f"grad_check: epsilon {epsilon} outside [1e-6, 1e-3]")
    inputs = list(inputs)
    out = f(*inputs)
    if out.shape != ():
        raise ad.GraphError("grad_check: f must return a scalar tensor")
    analytic = ad.grad(out, inputs, allow_unused=True)
    max_err = 0.0
    base = [t.data.copy() for t in inputs]
    flags = [t.requires_grad for t in inputs]
    for i, t in enumerate(inputs):
        flat_analytic = analytic[i].data.reshape(-1)
        for j in range(t.size):
            # f is re-evaluated with recording on: it may take gradients
            # internally (e.g. an adaptation step), so no_grad would break it.
            shifted = [ad.Tensor(b, requires_grad=r) for b, r in zip(base, flags)]
            plus = base[i].copy().reshape(-1)
            plus[j] += epsilon
            minus = base[i].copy().reshape(-1)
            minus[j] -= epsilon
            shifted[i] = ad.Tensor(plus.reshape(t.shape), requires_grad=flags[i])
            f_plus = f(*shifted).item()
            shifted[i] = ad.Tensor(minus.reshape(t.shape), requires_grad=flags[i])
            f_minus = f(*shifted).item()
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = flat_analytic[j]
            if not (np.isfinite(a) and np.isfinite(numeric)):
                raise NonFiniteError("grad_check: non-finite value encountered")
            err = abs(a - numeric) / max(1.0, abs(a))
            if err > max_err:
                max_err = err
    return max_err
