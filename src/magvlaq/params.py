"""Named trainable parameters with gradients and optimizer moment storage."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError

Layer = tuple[ad.Tensor, ad.Tensor]


class ParamStore:
    """Registry of uniquely named parameter tensors plus Adam moments.

    Values are C-contiguous, and the first/second moment buffers share their
    shape and dtype; ``step`` counts optimizer updates to the whole store.
    """

    def __init__(self) -> None:
        self.params: dict[str, ad.Tensor] = {}
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, value: np.ndarray) -> ad.Tensor:
        if name in self.params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        tensor = ad.Tensor(np.asarray(value, order="C"))
        self.params[name] = tensor
        self.first_moment[name] = np.zeros_like(tensor.value)
        self.second_moment[name] = np.zeros_like(tensor.value)
        return tensor

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __len__(self) -> int:
        return len(self.params)

    def names(self) -> list[str]:
        return sorted(self.params)

    def items(self) -> Iterator[tuple[str, ad.Tensor]]:
        for name in self.names():
            yield name, self.params[name]

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace parameter values; names and shapes must match.

        A C-contiguous array of its parameter's dtype becomes the new value
        without a copy, so the caller must not modify it afterwards.
        """
        missing = set(self.params) - set(values)
        extra = set(values) - set(self.params)
        if missing or extra:
            raise ConfigurationError(
                f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, arr in values.items():
            tensor = self.params[name]
            if arr.shape != tensor.value.shape:
                raise ConfigurationError(
                    f"parameter {name!r}: stored shape {arr.shape} != expected {tensor.value.shape}"
                )
            tensor.value = np.asarray(arr, dtype=tensor.value.dtype, order="C")
            tensor.zero_grad()


def init_weight(store: ParamStore, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator, dtype=np.float32) -> ad.Tensor:
    """Register one (fan_in, fan_out) weight drawn with std 1/sqrt(fan_in)."""
    w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)).astype(dtype)
    return store.add(name, w)


def init_linear(
    store: ParamStore,
    prefix: str,
    fan_in: int,
    fan_out: int,
    rng: np.random.Generator,
    zero: bool = False,
    dtype=np.float32,
) -> Layer:
    """Register one (weight, bias) pair; weight std is 1/sqrt(fan_in)."""
    if zero:
        w = store.add(f"{prefix}.w", np.zeros((fan_in, fan_out), dtype=dtype))
    else:
        w = init_weight(store, f"{prefix}.w", fan_in, fan_out, rng, dtype)
    return w, store.add(f"{prefix}.b", np.zeros((1, fan_out), dtype=dtype))


def init_mlp(
    store: ParamStore,
    prefix: str,
    widths: Sequence[int],
    rng: np.random.Generator,
    zero_final: bool = False,
    dtype=np.float32,
) -> list[Layer]:
    """Register an MLP as consecutive layers ``prefix.0 .. prefix.{n-1}``.

    ``widths`` lists the dimension chain [in, hidden..., out]. With
    ``zero_final`` the last layer starts at zero so the net's output is
    exactly zero at initialization.
    """
    if len(widths) < 2:
        raise ConfigurationError(f"{prefix}: an MLP needs at least [in, out] widths")
    layers = []
    n = len(widths) - 1
    for i in range(n):
        layers.append(
            init_linear(
                store,
                f"{prefix}.{i}",
                widths[i],
                widths[i + 1],
                rng,
                zero=zero_final and i == n - 1,
                dtype=dtype,
            )
        )
    return layers
