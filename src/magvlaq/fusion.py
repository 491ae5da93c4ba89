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

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError, DivergenceError
from .params import Layer


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0)


def rk4_integrate(state, layers: Sequence[Layer], steps: int, horizon: float,
                  activation: str = "tanh") -> ad.Tensor:
    """Integrate y' = mlp(y) from 0 to horizon with classic RK4, as one node.

    ``layers`` holds (W, b) pairs as in ``autodiff.mlp_forward``: the
    activation sits between layers, and the last layer's width must equal
    the state's. The forward keeps the operation order of the unrolled
    solver (``rk4_unrolled`` in tests/oracles.py), so its output is
    bit-identical to it. With a tape, the input of every layer at every
    stage is kept, and the backward sweeps the solve in reverse: the exact
    gradient of the unrolled solver. Under no_grad nothing is kept. Raises
    DivergenceError naming the first step whose state stops being finite.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if activation not in ("tanh", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    if not layers:
        raise ConfigurationError("rk4_integrate needs at least one dynamics layer")
    state = ad.as_tensor(state)
    if state.value.ndim != 2:
        raise DimensionError(f"the state must be 2-D, got shape {state.value.shape}")
    params = [(ad.as_tensor(w), ad.as_tensor(b)) for w, b in layers]
    width = state.value.shape[1]
    for i, (w, _) in enumerate(params):
        if w.value.ndim != 2 or w.value.shape[0] != width:
            raise ConfigurationError(
                f"layer {i}: input width {width} does not chain with weight "
                f"shape {w.value.shape}"
            )
        width = w.value.shape[1]
    if width != state.value.shape[1]:
        raise ConfigurationError(
            f"dynamics output width {width} does not match the state width "
            f"{state.value.shape[1]}"
        )
    weights = [(w.value, b.value) for w, b in params]
    act = np.tanh if activation == "tanh" else _relu

    def dynamics(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The MLP's value at x, and the input of each of its layers."""
        inputs = [x]
        for w, b in weights[:-1]:
            x = act(x @ w + b)
            inputs.append(x)
        w, b = weights[-1]
        return x @ w + b, inputs

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

        def dynamics_vjp(inputs: list[np.ndarray], g: np.ndarray) -> np.ndarray:
            """Gradient at the stage input; adds the stage's weight gradients
            to g_w and g_b."""
            for j in range(len(weights) - 1, -1, -1):
                x = inputs[j]
                g_w[j] += x.T @ g
                g_b[j] += g.sum(axis=0)
                g = g @ weights[j][0].T
                if j:
                    g = g * (1.0 - x * x) if activation == "tanh" else g * (x > 0)
            return g

        g_y = out.grad
        for in1, in2, in3, in4 in reversed(tape):
            g_inc = g_y * (h / 6.0)
            g4 = dynamics_vjp(in4, g_inc)
            g3 = dynamics_vjp(in3, g_inc * 2.0 + g4 * h)
            g2 = dynamics_vjp(in2, g_inc * 2.0 + g3 * (h / 2.0))
            g1 = dynamics_vjp(in1, g_inc + g2 * (h / 2.0))
            g_y = g_y + g1 + g2 + g3 + g4
        state.accumulate_grad(g_y)
        for (w, b), gw, gb in zip(params, g_w, g_b):
            w.accumulate_grad(gw)
            b.accumulate_grad(gb)

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
