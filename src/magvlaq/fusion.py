"""Cross-modal fusion through a cascade of learned continuous dynamics.

Each scale contributes a message vector (sum of per-modality MLPs applied to
mean-pooled projected tokens). Starting from the deepest scale, the state is
integrated through that scale's learned MLP dynamics with fixed-step RK4,
then injected as the initial condition of the next shallower scale. The
final state of the shallowest scale is the fusion embedding.

Each flow is one node of the autodiff graph. Its forward runs the solver in
plain numpy; its backward sweeps the unrolled solver in reverse by hand, so
gradients are the exact gradients of the discrete solve
("discretize-then-optimize"), not a continuous adjoint.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DivergenceError
from .params import Layer


def rk4_integrate(state, layers: Sequence[Layer], steps: int, horizon: float,
                  activation: str = "tanh") -> ad.Tensor:
    """Integrate y' = mlp(y) from 0 to horizon with classic RK4, as one node.

    ``layers`` holds (W, b) pairs as in ``autodiff.mlp_forward``, and every
    stage runs that MLP's numpy forward and reverse sweep; the last layer's
    width must equal the state's. The forward keeps the operation order of
    the unrolled solver (``rk4_unrolled`` in tests/oracles.py), so its output
    is bit-identical to it. With a tape, the input of every layer at every
    stage is kept, and the backward sweeps the solve in reverse: the exact
    gradient of the unrolled solver. Under no_grad nothing is kept. Raises
    DivergenceError naming the first step whose state stops being finite.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    state = ad.as_tensor(state)
    params = [(ad.as_tensor(w), ad.as_tensor(b)) for w, b in layers]
    weights = [(w.value, b.value) for w, b in params]
    width = ad.check_mlp(state.value, weights, activation)
    if width != state.value.shape[1]:
        raise ConfigurationError(
            f"dynamics output width {width} does not match the state width "
            f"{state.value.shape[1]}"
        )
    dynamics = functools.partial(ad.mlp_values, weights=weights, activation=activation)

    keep = ad.grad_enabled()
    tape = []
    h = horizon / steps
    y = state.value
    for i in range(steps):
        k1, in1 = dynamics(y)
        k2, in2 = dynamics(y + k1 * (h / 2.0))
        k3, in3 = dynamics(y + k2 * (h / 2.0))
        k4, in4 = dynamics(y + k3 * h)
        y = y + ((k1 + k2 * 2.0) + (k3 * 2.0 + k4)) * (h / 6.0)
        if not np.isfinite(y).all():
            raise DivergenceError(
                f"non-finite state after integration step {i + 1} of {steps}"
            )
        if keep:
            tape.append((in1, in2, in3, in4))

    def backward(out: ad.Tensor) -> None:
        g_w = [np.zeros_like(w) for w, _ in weights]
        g_b = [np.zeros_like(b) for _, b in weights]
        vjp = functools.partial(ad.mlp_backward, weights, g_w=g_w, g_b=g_b,
                                activation=activation)
        g_y = out.grad
        for in1, in2, in3, in4 in reversed(tape):
            g_inc = g_y * (h / 6.0)
            g4 = vjp(in4, g_inc)
            g3 = vjp(in3, g_inc * 2.0 + g4 * h)
            g2 = vjp(in2, g_inc * 2.0 + g3 * (h / 2.0))
            g1 = vjp(in1, g_inc + g2 * (h / 2.0))
            g_y = g_y + g1 + g2 + g3 + g4
        state.accumulate_grad(g_y, fresh=True)
        for (w, b), gw, gb in zip(params, g_w, g_b):
            w.accumulate_grad(gw, fresh=True)
            b.accumulate_grad(gb, fresh=True)

    return ad.Tensor(y, (state, *(t for layer in params for t in layer)), backward)


def fuse(messages: Sequence[ad.Tensor], layers: Sequence[Sequence[Layer]],
         activation: str, steps: int, horizon: float) -> ad.Tensor:
    """Cascade messages[0..L-1] (shallowest first) into one fusion embedding.

    ``layers[idx]`` is the MLP of scale idx's dynamics. The deepest scale
    integrates from its own message; every shallower scale starts from its
    message plus the previous flow's end state. With zero dynamics this
    reduces to the plain sum of all messages.
    """
    if not messages or len(layers) != len(messages):
        raise ConfigurationError(
            f"expected {len(messages)} dynamics, one per message, got {len(layers)}"
        )
    carry = rk4_integrate(messages[-1], layers[-1], steps, horizon, activation)
    for idx in range(len(messages) - 2, -1, -1):
        carry = rk4_integrate(ad.add(messages[idx], carry), layers[idx], steps,
                              horizon, activation)
    return carry
