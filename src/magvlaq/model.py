"""End-to-end descriptor model for ground-to-aerial place matching.

One parameter registry backs three interchangeable aggregators:

* ``ode-vlaq``  — query-residual aggregation whose prototype bank is shifted
  per ground observation by a conditioner driven through the fusion cascade;
* ``static-vlaq`` — the same aggregation with the shared, unshifted bank;
* ``pooling``  — mean pooling over projected tokens, as a baseline.

All aggregators register the identical parameter set in the identical RNG
draw order, so runs that differ only in aggregator start from bit-identical
weights. Aerial references always use the shared prototype bank, which keeps
their descriptors precomputable offline.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import fusion, retrieval, vlaq
from .errors import ConfigurationError, DimensionError
from .params import Layer, ParamStore, Source, init_mlp, init_weight
from .tokens import AerialReference, GroundObservation

AGGREGATORS = ("pooling", "static-vlaq", "ode-vlaq")
# The ground modalities each sensor mask keeps.
_MASKS = {"both": ("image", "lidar"), "image-only": ("image",), "lidar-only": ("lidar",)}
MODALITY_MASKS = tuple(_MASKS)
# Items per batch when embedding a list; it bounds the memory of one batch.
EMBED_CHUNK = 64
# Rows per layer-norm call in project_tokens: a 4096 x 128 stack of 64 token
# matrices took 0.85x the per-matrix time at 128, 0.79x at 256, 1.06x at 1024.
LN_BLOCK = 256


@dataclass(frozen=True)
class ModelConfig:
    raw_dim: int = 96
    proj_dim: int = 128
    num_queries: int = 64
    out_dim: int = 512
    fuse_dim: int = 64
    num_scales: int = 4
    ode_steps: int = 4
    horizon: float = 1.0
    alpha: float = 0.1
    aggregator: str = "ode-vlaq"
    msg_hidden: int = 64
    dyn_hidden: int = 64
    cond_hidden: int = 64
    activation: str = "tanh"

    def validate(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ConfigurationError(
                f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}"
            )
        if self.activation not in ("tanh", "relu"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if not math.isfinite(self.alpha):
            raise ConfigurationError(f"conditioning strength must be finite, got {self.alpha}")
        if min(self.raw_dim, self.msg_hidden, self.dyn_hidden, self.cond_hidden) < 1:
            raise ConfigurationError("model dims must be positive")
        if min(self.num_queries, self.proj_dim, self.out_dim) < 1:
            raise ConfigurationError(
                f"vlaq dims must be positive, got S={self.num_queries} "
                f"D={self.proj_dim} out={self.out_dim}"
            )
        if self.fuse_dim < 1 or self.num_scales < 1:
            raise ConfigurationError(
                f"fusion needs positive dims, got fuse_dim={self.fuse_dim} "
                f"num_scales={self.num_scales}"
            )
        if self.ode_steps < 1:
            raise ConfigurationError(f"integration needs >= 1 step, got {self.ode_steps}")
        if not self.horizon > 0:
            raise ConfigurationError(f"integration horizon must be > 0, got {self.horizon}")


@dataclass
class GroundForward:
    """Descriptor plus the 1 x (S*D) prototype shift behind it (None if unshifted)."""

    descriptor: ad.Tensor
    shift: ad.Tensor | None = None


def _mask_modalities(mask: str) -> tuple[str, ...]:
    if mask not in _MASKS:
        raise ConfigurationError(
            f"unknown modality mask {mask!r}; expected one of {MODALITY_MASKS}"
        )
    return _MASKS[mask]


class PlaceModel:
    """Parameter container and forward passes for the descriptor pipeline.

    Initialization draws every parameter in a fixed order from a single
    seeded generator: projectors, layer norms, prototypes, output
    projections, then per-scale fusion MLPs and the conditioner. Dynamics
    and conditioner final layers start at zero, so at initialization every
    flow is the identity and the prototype shift is exactly zero.
    """

    def __init__(self, config: ModelConfig, seed: int,
                 dtype: np.dtype = ad.DEFAULT_DTYPE) -> None:
        self._register(config, ParamStore(), np.random.default_rng(seed), dtype)

    @classmethod
    def from_source(cls, config: ModelConfig, source: Source) -> PlaceModel:
        """A model of the default dtype whose parameters and Adam moments are
        adopted from ``source`` (see ``ParamStore``), none drawn or zeroed."""
        model = cls.__new__(cls)
        model._register(config, ParamStore(source), None, ad.DEFAULT_DTYPE)
        return model

    def _register(self, config: ModelConfig, store: ParamStore,
                  rng: np.random.Generator | None, dtype: np.dtype) -> None:
        """Register every parameter in the fixed draw order; ``rng`` is only
        read by a store without a source."""
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        self.store = store
        c = config
        self.proj = {
            m: init_weight(self.store, f"proj.{m}.w", c.raw_dim, c.proj_dim, rng,
                           dtype=self.dtype)
            for m in ("image", "lidar", "aerial")
        }
        self.ln = {}
        for modality in ("image", "lidar"):
            gain = self.store.register(f"ln.{modality}.gain", (1, c.proj_dim),
                                       self.dtype, lambda value: value.fill(1))
            bias = self.store.register(f"ln.{modality}.bias", (1, c.proj_dim),
                                       self.dtype, None)
            self.ln[modality] = (gain, bias)
        self.prototypes = self.store.register(
            "prototypes", (c.num_queries, c.proj_dim), self.dtype,
            lambda v: np.copyto(v, vlaq.init_prototypes(*v.shape, rng, v.dtype)),
        )
        self.agg_proj = init_weight(self.store, "agg.proj.w", c.num_queries * c.proj_dim,
                                    c.out_dim, rng, dtype=self.dtype)
        self.pool_proj = init_weight(self.store, "pool.proj.w", c.proj_dim, c.out_dim,
                                     rng, dtype=self.dtype)

        self.msg_layers: dict[str, list[list[Layer]]] = {"image": [], "lidar": []}
        self.dyn_layers: list[list[Layer]] = []
        for idx in range(c.num_scales):
            for modality in ("image", "lidar"):
                self.msg_layers[modality].append(
                    init_mlp(
                        self.store,
                        f"fuse.msg.{modality}.{idx}",
                        (c.proj_dim, c.msg_hidden, c.fuse_dim),
                        rng,
                        dtype=self.dtype,
                    )
                )
            self.dyn_layers.append(
                init_mlp(
                    self.store,
                    f"fuse.dyn.{idx}",
                    (c.fuse_dim, c.dyn_hidden, c.fuse_dim),
                    rng,
                    zero_final=True,
                    dtype=self.dtype,
                )
            )
        self.cond_layers = init_mlp(
            self.store,
            "cond",
            (c.fuse_dim, c.cond_hidden, c.num_queries * c.proj_dim),
            rng,
            zero_final=True,
            dtype=self.dtype,
        )

    # ----- token preprocessing -------------------------------------------

    def project_tokens(self, mats: Sequence[np.ndarray], modality: str,
                       owners: Sequence[str]) -> ad.Tensor:
        """Project token matrices into the working space as one node, their
        rows stacked in list order; ground modalities are additionally
        layer-normalized per token, aerial tokens are not. Each matrix is
        multiplied on its own and the layer norm works row by row, LN_BLOCK
        rows at a time, so its rows are those of a list that holds it alone.
        The reverse sweep runs block by block over the saved state, and then
        one weight-gradient matmul of the stacked inputs."""
        xs = [np.asarray(m, dtype=self.dtype) for m in mats]
        for x, owner in zip(xs, owners):
            if x.ndim != 2 or x.shape[1] != self.config.raw_dim:
                raise DimensionError(
                    f"{owner}: token matrix shape {x.shape} does not match "
                    f"raw dim {self.config.raw_dim}"
                )
        w, norm = self.proj[modality], self.ln.get(modality)
        starts = [0, *itertools.accumulate(len(x) for x in xs)]
        out = np.empty((starts[-1], self.config.proj_dim), self.dtype)
        for x, start, stop in zip(xs, starts, starts[1:]):
            np.matmul(x, w.value, out=out[start:stop])
        saved = []
        for start in range(0, len(out) if norm else 0, LN_BLOCK):
            rows = slice(start, start + LN_BLOCK)
            out[rows], *state = ad.layer_norm_values(out[rows], norm[0].value, norm[1].value)
            if ad.grad_enabled():
                saved.append((rows, state))

        def bw(node):
            g = node.grad
            if norm is not None:
                g, g_ln = np.empty_like(g), np.zeros((2, out.shape[1]))
                for rows, state in saved:
                    g[rows] = ad.layer_norm_backward(node.grad[rows], *state, norm[0].value, *g_ln)
                for p, gp in zip(norm, g_ln):
                    p.accumulate_grad(gp.reshape(p.value.shape))
            w.accumulate_grad(np.concatenate(xs).T @ g, fresh=True)

        return ad.Tensor(out, (w, *(norm or ())), bw)

    def _ground_scales(self, obs: GroundObservation, modality: str) -> list[np.ndarray]:
        scales = obs.image.scales if modality == "image" else obs.lidar.scales
        if len(scales) != self.config.num_scales:
            raise DimensionError(
                f"{obs.id}: expected {self.config.num_scales} scales, got {len(scales)}"
            )
        return scales

    # ----- fusion + conditioning -----------------------------------------

    def fusion_embedding(self, batch: GroundBatch,
                         modalities: tuple[str, ...] = ("image", "lidar")) -> ad.Tensor:
        """Run the cascade over all scales of the unmasked modalities, one
        row per observation of the batch."""
        messages = [
            functools.reduce(ad.add, [
                ad.mlp_forward(ad.mean_rows(*batch.scale_tokens(modality, idx)),
                               self.msg_layers[modality][idx], self.config.activation)
                for modality in modalities
            ])
            for idx in range(self.config.num_scales)
        ]
        return fusion.fuse(messages, self.dyn_layers, self.config.activation,
                           self.config.ode_steps, self.config.horizon)

    def predict_query_shift(self, embedding: ad.Tensor) -> ad.Tensor:
        """Map fusion embeddings (one row per observation) to additive
        prototype shifts, one flat S*D row per observation."""
        return ad.mlp_forward(embedding, self.cond_layers, activation=self.config.activation)

    # ----- descriptors ----------------------------------------------------

    def _shifts(self, batch: GroundBatch, modalities: tuple[str, ...],
                conditioned: bool | None) -> ad.Tensor | None:
        """Prototype shifts of a batch, a row per observation, or None for the
        shared bank. ``conditioned`` defaults to True only for ode-vlaq; pooling
        has no bank to shift, and a zero shift strength collapses conditioning
        to the shared bank exactly, so both skip the branch."""
        if conditioned is None:
            conditioned = self.config.aggregator == "ode-vlaq"
        if (not conditioned or self.config.alpha == 0.0
                or self.config.aggregator == "pooling"):
            return None
        return self.predict_query_shift(self.fusion_embedding(batch, modalities))

    def _pre_head(self, tokens: ad.Tensor, counts: Sequence[int],
                  shifts: ad.Tensor | None = None) -> ad.Tensor:
        """Pre-head rows of stacked token sets, one per set of ``counts`` rows:
        their means for the pooling aggregator, otherwise their residual
        features over the prototype bank moved by ``shifts``."""
        if self.config.aggregator == "pooling":
            return ad.mean_rows(tokens, counts)
        return vlaq.residual_features(tokens, counts, self.prototypes, shifts,
                                      self.config.alpha)

    def head(self, rows: Sequence[ad.Tensor]) -> ad.Tensor:
        """Unit descriptors of blocks of pre-head rows, one per row in order,
        as one ``vlaq.head`` node over the aggregator's projection."""
        proj = self.pool_proj if self.config.aggregator == "pooling" else self.agg_proj
        return vlaq.head(rows, proj)

    def ground_rows(self, batch: GroundBatch, mask: str = "both",
                    conditioned: bool | None = None
                    ) -> tuple[ad.Tensor, ad.Tensor | None]:
        """Pre-head rows of a batch under a sensor mask as one node, a row per
        observation, and the prototype shifts that moved their banks (None
        where the bank is the shared one)."""
        modalities = _mask_modalities(mask)
        shifts = self._shifts(batch, modalities, conditioned)
        return self._pre_head(*batch.tokens(modalities), shifts), shifts

    def aerial_rows(self, refs: Sequence[AerialReference]) -> ad.Tensor:
        """Pre-head rows of aerial references as one node, a row each, always
        over the shared bank; their tokens go through one projection node."""
        mats = [ref.token_set.scales[-1] for ref in refs]
        projected = self.project_tokens(mats, "aerial", [ref.id for ref in refs])
        return self._pre_head(projected, [len(m) for m in mats])

    def ground_forward(self, obs: GroundObservation, mask: str = "both",
                       conditioned: bool | None = None) -> GroundForward:
        """Descriptor for a ground observation under an optional sensor mask.

        Auxiliary single-modality descriptors pass ``conditioned=False`` to
        stay on the shared prototype bank.
        """
        rows, shift = self.ground_rows(GroundBatch(self, [obs]), mask, conditioned)
        return GroundForward(self.head([rows]), shift)

    def aerial_descriptor(self, ref: AerialReference) -> ad.Tensor:
        """Descriptor for an aerial reference; never conditioned, so databases
        can be embedded once and reused for every query."""
        return self.head([self.aerial_rows([ref])])

    def assignment_heatmap(self, obs: GroundObservation, mask: str = "both",
                           conditioned: bool | None = None) -> np.ndarray:
        """Token-by-query soft-assignment matrix of the bank ``ground_forward``
        uses for the same arguments, for inspection dumps."""
        if self.config.aggregator == "pooling":
            raise ConfigurationError("the pooling aggregator has no assignment matrix")
        with ad.no_grad():
            modalities = _mask_modalities(mask)
            batch = GroundBatch(self, [obs])
            shifts = self._shifts(batch, modalities, conditioned)
            shift = None if shifts is None else shifts.value[0]
            bank = vlaq.shifted_bank(self.prototypes.value, shift, self.config.alpha)
            tokens = batch.tokens(modalities)[0].value
            return vlaq.assignment_weights(tokens, bank)

    # ----- embedding lists ------------------------------------------------

    def _embed(self, items: Sequence, chunk_rows) -> np.ndarray:
        """Descriptors of items in input order, with no tape, each chunk through
        ``chunk_rows`` and one head into its rows of the output. One
        ``retrieval.parallel_map`` call runs the chunks: up to EMBED_CHUNK items
        are one chunk, which it runs on the calling thread; a longer list is cut
        into chunks of EMBED_CHUNK // 2, so two in flight hold about what one
        full chunk does. The bytes do not depend on the thread count."""
        out = np.empty((len(items), self.config.out_dim), self.dtype)
        size = EMBED_CHUNK if len(items) <= EMBED_CHUNK else EMBED_CHUNK // 2

        def embed_chunk(start: int) -> None:
            with ad.no_grad():  # a ContextVar: a worker thread starts taping
                chunk = items[start : start + size]
                out[start : start + len(chunk)] = self.head([chunk_rows(chunk)]).value

        retrieval.parallel_map(embed_chunk, range(0, len(items), size))
        return out

    def embed_ground(self, observations: Sequence[GroundObservation],
                     mask: str = "both") -> np.ndarray:
        """Descriptors of ground observations (N x out_dim, input order), in
        chunks spread over the workers as ``_embed`` says; each chunk's
        projection, fusion cascade, conditioner and aggregation run as one node
        per stage on its stacked rows. Rows match ``ground_forward`` (and
        ``embed_aerial``'s match ``aerial_descriptor``) to float32 rounding, 1e-6
        at the default config, not bit for bit: a one-row matmul may take another kernel."""
        return self._embed(
            observations, lambda chunk: self.ground_rows(GroundBatch(self, chunk), mask)[0]
        )

    def embed_aerial(self, references: Sequence[AerialReference]) -> np.ndarray:
        """Descriptors of aerial references (N x out_dim, input order)."""
        return self._embed(references, self.aerial_rows)


class GroundBatch:
    """Ground observations whose token matrices are projected on use, one
    projection node per (modality, scale) for the whole batch.

    The last scale of each modality is projected once and then shared by
    the fusion cascade and every sensor view of the batch. The other scales
    feed only the cascade, so they are not kept: without a tape their
    projections are freed once pooled.
    """

    def __init__(self, model: PlaceModel,
                 observations: Sequence[GroundObservation]) -> None:
        self.model = model
        self.observations = list(observations)
        self._last_scale: dict[str, tuple[ad.Tensor, list[int]]] = {}

    def scale_tokens(self, modality: str, idx: int) -> tuple[ad.Tensor, list[int]]:
        """Projected tokens of one modality at one scale, every observation's
        rows stacked in batch order, and each observation's row count."""
        last = idx == self.model.config.num_scales - 1
        if last and modality in self._last_scale:
            return self._last_scale[modality]
        mats = [self.model._ground_scales(obs, modality)[idx] for obs in self.observations]
        ids = [obs.id for obs in self.observations]
        projected = self.model.project_tokens(mats, modality, ids), [len(m) for m in mats]
        if last:
            self._last_scale[modality] = projected
        return projected

    def tokens(self, modalities: tuple[str, ...]) -> tuple[ad.Tensor, list[int]]:
        """Aggregation input of the batch and each observation's row count:
        the last-scale projection of one modality as it is, of two one node
        that stacks each observation's rows of both in modality order."""
        last = self.model.config.num_scales - 1
        parts, counts = zip(*(self.scale_tokens(m, last) for m in modalities))
        return ad.concat_rows(parts, counts), [sum(c) for c in zip(*counts)]
