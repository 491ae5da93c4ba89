"""Cross-modal fusion through a cascade of learned continuous dynamics.

Each scale contributes a message vector (sum of per-modality MLPs applied to
mean-pooled projected tokens). Starting from the deepest scale, the state is
integrated through that scale's learned dynamics with fixed-step RK4, then
injected as the initial condition of the next shallower scale. The final
state of the shallowest scale is the fusion embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DivergenceError

Dynamics = Callable[[ad.Tensor], ad.Tensor]


@dataclass(frozen=True)
class FusionConfig:
    fuse_dim: int = 64
    num_scales: int = 4
    steps: int = 4
    horizon: float = 1.0

    def validate(self) -> None:
        if self.fuse_dim < 1 or self.num_scales < 1:
            raise ConfigurationError(
                f"fusion needs positive dims, got fuse_dim={self.fuse_dim} "
                f"num_scales={self.num_scales}"
            )
        if self.steps < 1:
            raise ConfigurationError(f"integration needs >= 1 step, got {self.steps}")
        if not self.horizon > 0:
            raise ConfigurationError(f"integration horizon must be > 0, got {self.horizon}")


def rk4_integrate(state: ad.Tensor, dynamics: Dynamics, steps: int,
                  horizon: float) -> ad.Tensor:
    """Integrate y' = dynamics(y) from 0 to horizon with classic RK4.

    The solve is unrolled on the autodiff tape, so gradients flow through
    every stage. Raises DivergenceError naming the first step whose state
    stops being finite.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    h = horizon / steps
    y = state
    for i in range(steps):
        k1 = dynamics(y)
        k2 = dynamics(ad.add(y, ad.scale(k1, h / 2.0)))
        k3 = dynamics(ad.add(y, ad.scale(k2, h / 2.0)))
        k4 = dynamics(ad.add(y, ad.scale(k3, h)))
        increment = ad.add(ad.add(k1, ad.scale(k2, 2.0)), ad.add(ad.scale(k3, 2.0), k4))
        y = ad.add(y, ad.scale(increment, h / 6.0))
        if not np.isfinite(y.value).all():
            raise DivergenceError(
                f"non-finite state after integration step {i + 1} of {steps}"
            )
    return y


def fuse(messages: Sequence[ad.Tensor], dynamics: Sequence[Dynamics],
         config: FusionConfig) -> ad.Tensor:
    """Cascade messages[0..L-1] (shallowest first) into one fusion embedding.

    The deepest scale integrates from its own message; every shallower scale
    starts from its message plus the previous flow's end state. With zero
    dynamics this reduces to the plain sum of all messages.
    """
    if len(messages) != config.num_scales or len(dynamics) != config.num_scales:
        raise ConfigurationError(
            f"expected {config.num_scales} messages and dynamics, got "
            f"{len(messages)} and {len(dynamics)}"
        )
    carry: ad.Tensor | None = None
    for idx in range(config.num_scales - 1, -1, -1):
        init = messages[idx] if carry is None else ad.add(messages[idx], carry)
        carry = rk4_integrate(init, dynamics[idx], config.steps, config.horizon)
    assert carry is not None
    return carry
