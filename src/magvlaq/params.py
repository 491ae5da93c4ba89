"""Named trainable parameters with gradients and optimizer moment storage."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError

Layer = tuple[ad.Tensor, ad.Tensor]
# Elements per float64 normal draw in init_weight (whole rows, at least one)
DRAW_BLOCK = 1 << 16
# Writes a parameter's initial value in place into its array, which starts at
# zero; an init of None keeps the zeros.
Init = Callable[[np.ndarray], object]
# Supplies a stored parameter's (value, first moment, second moment) from its
# (name, shape, dtype), validating them first; the moments may be None.
Source = Callable[[str, tuple[int, ...], np.dtype],
                  tuple[np.ndarray, np.ndarray | None, np.ndarray | None]]


class ParamStore:
    """Registry of uniquely named parameter tensors plus Adam moments.

    Values are C-contiguous, and the first/second moment buffers share their
    shape and dtype; ``step`` counts optimizer updates to the whole store.
    A store built with a ``source`` adopts each registered parameter's value
    and moments from it instead of drawing and zeroing them. A source that
    gives no moments (None) makes a store that cannot take an optimizer step.
    """

    def __init__(self, source: Source | None = None) -> None:
        self.params: dict[str, ad.Tensor] = {}
        self.first_moment: dict[str, np.ndarray | None] = {}
        self.second_moment: dict[str, np.ndarray | None] = {}
        self.step = 0
        self._source = source

    def register(self, name: str, shape: tuple[int, ...], dtype: np.dtype,
                 init: Init | None) -> ad.Tensor:
        """Register a parameter of the given shape and dtype.

        Without a source, the value and both moments are the rows of one
        ``np.zeros`` block (its own mapping when large, so the moments' pages
        stay untouched until a step writes them and return to the system when
        freed), and ``init`` writes the value in place. With a source, its
        arrays are adopted without a copy and ``init`` is never called.
        """
        if name in self.params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        dtype = np.dtype(dtype)
        if self._source is None:
            value, first, second = np.zeros((3, *shape), dtype)
            if init is not None:
                init(value)
        else:
            value, first, second = self._source(name, shape, dtype)
        tensor = ad.Tensor(value)
        self.params[name] = tensor
        self.first_moment[name] = first
        self.second_moment[name] = second
        return tensor

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def items(self) -> Iterator[tuple[str, ad.Tensor]]:
        for name in self.names():
            yield name, self.params[name]

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def init_weight(store: ParamStore, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator | None, dtype=np.float32) -> ad.Tensor:
    """Register one (fan_in, fan_out) weight drawn with std 1/sqrt(fan_in).

    The float64 normals are drawn in blocks of whole rows and cast into the
    weight: one whole draw's stream and bits, without its float64 copy.
    """
    std, rows = 1.0 / np.sqrt(fan_in), max(1, DRAW_BLOCK // max(1, fan_out))

    def draw(value: np.ndarray) -> None:
        for start in range(0, fan_in, rows):
            block = value[start : start + rows]
            block[...] = rng.normal(0.0, std, block.shape)

    return store.register(name, (fan_in, fan_out), dtype, draw)


def init_linear(
    store: ParamStore,
    prefix: str,
    fan_in: int,
    fan_out: int,
    rng: np.random.Generator | None,
    zero: bool = False,
    dtype=np.float32,
) -> Layer:
    """Register one (weight, bias) pair; weight std is 1/sqrt(fan_in)."""
    if zero:
        w = store.register(f"{prefix}.w", (fan_in, fan_out), dtype, None)
    else:
        w = init_weight(store, f"{prefix}.w", fan_in, fan_out, rng, dtype)
    return w, store.register(f"{prefix}.b", (1, fan_out), dtype, None)


def init_mlp(
    store: ParamStore,
    prefix: str,
    widths: Sequence[int],
    rng: np.random.Generator | None,
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
