"""Geo-supervised pair mining, losses, and the training loop.

Supervision comes entirely from geo-distance zones: references closer than
``tau_p`` to a query are positives, farther than ``tau_n`` are negatives,
and the band in between is never trained on. The total objective combines a
triplet loss on fused descriptors, a cross-domain consistency loss that also
covers single-sensor descriptors, and a penalty on the conditioner's
prototype shifts; a batch's objective is one tape node (``objective``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import magt, retrieval
from .errors import ConfigurationError, ContractError, DivergenceError
from .model import GroundBatch, PlaceModel
from .params import ParamStore
from .tokens import AerialReference, GroundObservation, TokenDataset, geo_distances

CSV_HEADER = "epoch,l_tri,l_aux,l_q,total,recall1,recall5,recall10,seconds"


@dataclass(frozen=True)
class MiningThresholds:
    tau_p: float = 10.0
    tau_n: float = 25.0

    def validate(self) -> None:
        if not 0 < self.tau_p < self.tau_n:
            raise ConfigurationError(
                f"need 0 < tau_p < tau_n, got tau_p={self.tau_p} tau_n={self.tau_n}"
            )


@dataclass(frozen=True)
class LossWeights:
    triplet: float = 1.0
    aux: float = 1.0
    shift: float = 1e-3


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 16
    lr: float = 1e-3
    margin: float = 0.1
    weights: LossWeights = LossWeights()
    thresholds: MiningThresholds = MiningThresholds()
    eval_radius: float = 25.0
    eval_ks: tuple[int, ...] = (1, 5, 10)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigurationError(f"learning rate must be > 0, got {self.lr}")
        if not self.margin > 0:
            raise ConfigurationError(f"margin must be > 0, got {self.margin}")
        if not all(math.isfinite(w) for w in vars(self.weights).values()):
            raise ConfigurationError(f"loss weights must be finite, got {self.weights}")
        if not (math.isfinite(self.eval_radius) and self.eval_radius >= 0):
            raise ConfigurationError(f"eval radius must be finite and >= 0, got {self.eval_radius}")
        if not self.eval_ks or min(self.eval_ks) < 1:
            raise ConfigurationError(f"need one or more recall cutoffs >= 1, got {self.eval_ks}")
        self.thresholds.validate()


@dataclass
class EpochMetrics:
    epoch: int
    l_tri: float
    l_aux: float
    l_q: float
    total: float
    recalls: dict[int, float]
    seconds: float
    skipped_anchors: int = 0

    def csv_row(self) -> str:
        recs = [self.recalls.get(k, float("nan")) for k in (1, 5, 10)]
        vals = [self.l_tri, self.l_aux, self.l_q, self.total, *recs]
        body = ",".join(f"{v:.9g}" for v in vals)
        return f"{self.epoch},{body},{self.seconds:.3f}"


def mine_pairs(anchor_geo: tuple[float, float],
               reference_geos: list[tuple[float, float]],
               thresholds: MiningThresholds) -> tuple[list[int], list[int]]:
    """Indices of positive (< tau_p) and negative (> tau_n) references.

    Both comparisons are strict; references inside [tau_p, tau_n] land in
    neither list and never contribute supervision.
    """
    near, far = geo_zones([anchor_geo], reference_geos, thresholds)
    return np.flatnonzero(near[0]).tolist(), np.flatnonzero(far[0]).tolist()


def geo_zones(ground_geos: Sequence[tuple[float, float]],
              reference_geos: Sequence[tuple[float, float]],
              thresholds: MiningThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ground x reference masks of the positive (< tau_p) and
    negative (> tau_n) zones; both comparisons are strict."""
    thresholds.validate()
    d = geo_distances(ground_geos, reference_geos)
    return d < thresholds.tau_p, d > thresholds.tau_n


def triplet_loss(distances: np.ndarray, positives: Sequence[int],
                 negatives: Sequence[int], margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean hinge on (margin + d_pos - d_neg) over anchors, and its gradient.

    ``distances`` is anchors x references; row i's positive and negative are
    the columns ``positives[i]`` and ``negatives[i]``. Returns the 1 x 1 loss
    and its gradient with respect to ``distances``, both in its dtype.
    """
    rows = distances.shape[0]
    if not (rows == len(positives) == len(negatives)):
        raise ContractError(
            f"triplet rows must align, got {rows}/{len(positives)}/{len(negatives)}"
        )
    if rows == 0:
        raise ContractError("triplet loss needs at least one triplet")
    dtype = distances.dtype
    anchors = np.arange(rows)
    gap = distances[anchors, positives] - distances[anchors, negatives]
    hinge = np.maximum(gap[:, None] + dtype.type(margin), 0)
    slope = (hinge[:, 0] > 0) / dtype.type(rows)
    grad = np.zeros_like(distances)
    grad[anchors, positives] = slope
    grad[anchors, negatives] -= slope
    return hinge.mean(axis=0, keepdims=True, dtype=np.float64).astype(dtype), grad


def aux_consistency_loss(distances: np.ndarray,
                         ground_geos: Sequence[tuple[float, float]],
                         reference_geos: Sequence[tuple[float, float]],
                         thresholds: MiningThresholds,
                         margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Cross-domain contrastive consistency against in-batch references, and
    its gradient.

    ``distances`` is ground descriptors (of every domain) x references. Every
    pair contributes a hinge pulling geo-close pairs under the margin and
    pushing geo-far pairs past twice the margin; band pairs contribute
    nothing. Returns the 1 x 1 mean hinge over the zoned pairs (zero if no
    pair lands in either zone) and its gradient with respect to
    ``distances``, both in its dtype.
    """
    if distances.shape != (len(ground_geos), len(reference_geos)):
        raise ContractError(
            f"distance matrix {distances.shape} does not match "
            f"{len(ground_geos)} ground and {len(reference_geos)} reference geos"
        )
    near, far = geo_zones(ground_geos, reference_geos, thresholds)
    inverse_count = 1.0 / max(int(near.sum() + far.sum()), 1)  # no pair: all zeros
    dtype = distances.dtype
    sign = near.astype(dtype) - far.astype(dtype)
    offset = (np.where(near, -margin, 0.0) + np.where(far, 2.0 * margin, 0.0)).astype(dtype)
    hinge = np.maximum(distances * sign + offset, 0)
    mean = np.array([[hinge.sum(dtype=np.float64)]], dtype) * inverse_count
    return mean, sign * (hinge > 0) * inverse_count


def objective(descriptors: ad.Tensor, positives: Sequence[int], negatives: Sequence[int],
              ground_geos: Sequence[tuple[float, float]],
              reference_geos: Sequence[tuple[float, float]],
              shifts: ad.Tensor | None, settings: TrainSettings
              ) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
    """The batch objective as one tape node: (l_tri, l_aux, l_q, total).

    ``descriptors`` has a row per entry of ``ground_geos``, then one per
    entry of ``reference_geos`` (another count raises ContractError). Their
    ground x reference distances are sqrt(sum of squared differences + 1e-12)
    in float64; the floor keeps the gradient finite where two rows coincide.
    The first ``len(positives)`` ground rows are the anchors' fused
    descriptors for the triplet loss. l_q is the mean over the anchors of the
    squared norm of their rows of ``shifts``, zero if it is None (static or
    pooling aggregation). The first three parts are values; ``total`` is the
    node, whose parents are ``descriptors`` and ``shifts`` unless it is None.
    Every part takes the dtype of ``descriptors``.
    """
    x, n = descriptors.value, len(ground_geos)
    if x.ndim != 2 or len(x) != n + len(reference_geos):
        raise ContractError(
            f"descriptors {x.shape} do not match {n} ground and "
            f"{len(reference_geos)} reference geos"
        )
    diff = x[:n].astype(np.float64)[:, None, :] - x[n:].astype(np.float64)[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + 1e-12)
    d = dist.astype(x.dtype)
    l_tri, g_tri = triplet_loss(d[: len(positives)], positives, negatives, settings.margin)
    l_aux, g_aux = aux_consistency_loss(d, ground_geos, reference_geos,
                                        settings.thresholds, settings.margin)
    l_q = np.zeros((1, 1), x.dtype)
    for row in () if shifts is None else shifts.value:
        l_q = l_q + np.array([[np.square(row).sum(dtype=np.float64)]], x.dtype)
    l_q = l_q * (1.0 / len(positives))
    w = settings.weights
    total = (l_tri * w.triplet + l_aux * w.aux) + l_q * w.shift

    def bw(out):
        g = out.grad
        grad = g_aux * (g * w.aux)
        grad[: len(positives)] += g_tri * (g * w.triplet)
        grad = grad.astype(np.float64) / dist
        g_x = np.zeros_like(x)
        g_x[:n] += np.einsum("ij,ijk->ik", grad, diff).astype(x.dtype)
        g_x[n:] += (-np.einsum("ij,ijk->jk", grad, diff)).astype(x.dtype)
        descriptors.accumulate_grad(g_x, fresh=True)
        if shifts is not None:
            shifts.accumulate_grad(2 * shifts.value * (g * w.shift * (1.0 / len(positives))))

    parents = (descriptors,) if shifts is None else (descriptors, shifts)
    return ad.Tensor(l_tri), ad.Tensor(l_aux), ad.Tensor(l_q), ad.Tensor(total, parents, bw)


# Elements per adam_step block, which stays in cache across the seven passes:
# a head-sized step took 26 ms at 64k, 29 ms at 32k and 128k, 55 ms unblocked.
ADAM_BLOCK = 1 << 16


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    All gradients are validated before any parameter moves, so a divergent
    batch leaves the store at its last finite state. The update runs block
    by block over flat views of the store's C-contiguous arrays, which does
    not change its bits. A parameter without a gradient is updated as if its
    gradient were zero, without building one. Gradients are cleared after
    the update. A store loaded without its moments raises ContractError.
    """
    if any(m is None for m in store.first_moment.values()):
        raise ContractError("the store was loaded without its Adam moments; it cannot step")
    for name, p in store.items():
        if p._grad is not None and not magt.all_finite(p._grad):
            raise DivergenceError(f"non-finite gradient in parameter {name!r}")
    store.step += 1
    t = store.step
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    # one buffer for the whole step holds the two block scratches of each parameter
    raw = np.empty(max((2 * min(p.value.size, ADAM_BLOCK) * p.value.itemsize
                        for _, p in store.items()), default=0), dtype=np.uint8)
    for name, p in store.items():
        grad, first, second = p._grad, store.first_moment[name], store.second_moment[name]
        flat_g = None if grad is None else grad.reshape(-1)
        flat = [arr.reshape(-1) for arr in (first, second, p.value)]
        block = min(p.value.size, ADAM_BLOCK)
        scratch = raw[: 2 * block * p.value.itemsize].view(p.value.dtype).reshape(2, block)
        for start in range(0, p.value.size, ADAM_BLOCK):
            m, v, value = (arr[start : start + ADAM_BLOCK] for arr in flat)
            a, b = scratch[:, : m.size]
            if flat_g is None:
                # a zero gradient's +0.0 terms turn each -0.0 moment into +0.0
                m *= beta1
                m += 0.0
                v *= beta2
                v += 0.0
            else:
                g = flat_g[start : start + ADAM_BLOCK]
                np.multiply(g, 1.0 - beta1, out=a)
                m *= beta1
                m += a
                np.multiply(g, 1.0 - beta2, out=a)
                a *= g
                v *= beta2
                v += a
            np.divide(v, correct2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, correct1, out=b)
            b /= a
            b *= lr
            value -= b
    store.zero_grads()


def batch_loss(model: PlaceModel, anchors: list, positives: list, negatives: list,
               settings: TrainSettings) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
    """Forward pass of one training batch; returns (l_tri, l_aux, l_q, total).

    ``anchors`` are ground observations; ``positives``/``negatives`` are the
    aerial references mined for them, aligned by position. The union of the
    mined references also serves as the in-batch set for the consistency
    loss. The fused, image-only and lidar-only rows of every anchor and the
    rows of every reference go through one head node, and the objective node
    reads its descriptors and the anchors' shifts; ``total`` is the tape's
    root.
    """
    refs = sorted({ref.id: ref for ref in [*positives, *negatives]}.items())
    column = {rid: j for j, (rid, _) in enumerate(refs)}

    batch = GroundBatch(model, anchors)
    fused, shifts = model.ground_rows(batch)
    image, _ = model.ground_rows(batch, mask="image-only", conditioned=False)
    lidar, _ = model.ground_rows(batch, mask="lidar-only", conditioned=False)
    descriptors = model.head([fused, image, lidar, model.aerial_rows([ref for _, ref in refs])])
    return objective(
        descriptors,
        [column[ref.id] for ref in positives],
        [column[ref.id] for ref in negatives],
        [obs.geo for obs in anchors] * 3,
        [ref.geo for _, ref in refs],
        shifts,
        settings,
    )


def train_epoch(model: PlaceModel, dataset: TokenDataset, settings: TrainSettings,
                epoch: int, rng: np.random.Generator) -> EpochMetrics:
    """One pass over the train split in shuffled batches, then a test eval.

    The epoch is mined once, at its start. Each anchor's positive is its
    nearest reference by geo distance. Epoch 0 draws its negative uniformly
    from the negative zone, one draw per anchor in shuffled order; later
    epochs take the zone member nearest by float64 descriptor distance,
    embedded at epoch start. Ties go to the lowest reference index. Anchors
    without a positive or a negative are skipped and counted.
    """
    settings.validate()
    started = time.perf_counter()
    train_obs = dataset.split_ground("train")
    if not train_obs:
        raise ConfigurationError("train split is empty")
    anchor_geos = [obs.geo for obs in train_obs]
    aerial_geos = [ref.geo for ref in dataset.aerial]
    near, far = geo_zones(anchor_geos, aerial_geos, settings.thresholds)
    usable = near.any(axis=1) & far.any(axis=1)
    used = int(usable.sum())
    if not used:
        raise ConfigurationError("every anchor in the epoch was skipped during mining")
    # the nearest reference of an anchor with a positive is its nearest positive
    positive = geo_distances(anchor_geos, aerial_geos).argmin(axis=1)
    order = rng.permutation(len(train_obs))
    if epoch == 0:
        negative = np.zeros(len(train_obs), dtype=np.intp)
        for i in order[usable[order]]:
            negative[i] = np.flatnonzero(far[i])[rng.integers(far[i].sum())]
    else:
        distances = retrieval.distance_matrix(model.embed_ground(train_obs),
                                              model.embed_aerial(dataset.aerial))
        negative = np.where(far, distances, np.inf).argmin(axis=1)

    sums = [0.0] * 4  # anchor-weighted l_tri, l_aux, l_q and total
    for start in range(0, len(order), settings.batch_size):
        batch = [i for i in order[start : start + settings.batch_size] if usable[i]]
        if not batch:
            continue
        parts = batch_loss(model, [train_obs[i] for i in batch],
                           [dataset.aerial[j] for j in positive[batch]],
                           [dataset.aerial[j] for j in negative[batch]], settings)
        ad.backward(parts[3])
        adam_step(model.store, settings.lr)
        sums = [s + part.item() * len(batch) for s, part in zip(sums, parts)]

    recalls = evaluate_recall(model, dataset, settings)
    return EpochMetrics(
        epoch, *(s / used for s in sums), recalls=recalls,
        seconds=time.perf_counter() - started, skipped_anchors=len(train_obs) - used,
    )


def recall_report(model: PlaceModel, queries: Sequence[GroundObservation],
                  references: Sequence[AerialReference], ks: Sequence[int],
                  radius: float, mask: str = "both") -> retrieval.EvalReport:
    """Recall@K of ground queries, embedded under ``mask``, against a
    database of the embedded references."""
    db = retrieval.DescriptorDatabase(
        ids=[ref.id for ref in references],
        geos=np.array([ref.geo for ref in references], dtype=np.float64),
        vectors=model.embed_aerial(references),
    )
    query_vecs = model.embed_ground(queries, mask=mask)
    query_geos = np.array([obs.geo for obs in queries], dtype=np.float64)
    return retrieval.recall_at_k(query_vecs, query_geos, db, ks=ks, radius=radius)


def evaluate_recall(model: PlaceModel, dataset: TokenDataset,
                    settings: TrainSettings, split: str = "test",
                    mask: str = "both") -> dict[int, float]:
    """Recall@K of the given split's queries against the full reference set."""
    queries = dataset.split_ground(split)
    if not queries or not dataset.aerial:
        return {k: float("nan") for k in settings.eval_ks}
    return recall_report(model, queries, dataset.aerial, settings.eval_ks,
                         settings.eval_radius, mask).recalls
