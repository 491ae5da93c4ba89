"""Geo-supervised pair mining, losses, and the training loop.

Supervision comes entirely from geo-distance zones: references closer than
``tau_p`` to a query are positives, farther than ``tau_n`` are negatives,
and the band in between is never trained on. The total objective combines a
triplet loss on fused descriptors, a cross-domain consistency loss that also
covers single-sensor descriptors, and a penalty on the conditioner's
prototype shifts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import retrieval
from .errors import ConfigurationError, ContractError, DivergenceError
from .model import PlaceModel
from .params import ParamStore
from .tokens import TokenDataset

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
    thresholds.validate()
    positives: list[int] = []
    negatives: list[int] = []
    for idx, geo in enumerate(reference_geos):
        d = math.hypot(anchor_geo[0] - geo[0], anchor_geo[1] - geo[1])
        if d < thresholds.tau_p:
            positives.append(idx)
        elif d > thresholds.tau_n:
            negatives.append(idx)
    return positives, negatives


def _const(value: float, like: ad.Tensor) -> ad.Tensor:
    return ad.as_tensor(np.array([[value]], dtype=like.value.dtype))


def pair_distance(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Differentiable Euclidean distance between two descriptor rows."""
    diff = ad.sub(a, b)
    return ad.sqrt(ad.sum_all(ad.mul(diff, diff)), eps=1e-12)


def _mean(terms: list[ad.Tensor]) -> ad.Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms))


def triplet_loss(anchors: list[ad.Tensor], positives: list[ad.Tensor],
                 negatives: list[ad.Tensor], margin: float) -> ad.Tensor:
    """Mean hinge on (margin + d_pos - d_neg) over aligned triplets."""
    if not (len(anchors) == len(positives) == len(negatives)):
        raise ContractError(
            f"triplet lists must align, got {len(anchors)}/{len(positives)}/{len(negatives)}"
        )
    if not anchors:
        raise ContractError("triplet loss needs at least one triplet")
    terms = []
    for a, p, n in zip(anchors, positives, negatives):
        gap = ad.add(ad.sub(pair_distance(a, p), pair_distance(a, n)), _const(margin, a))
        terms.append(ad.relu(gap))
    return _mean(terms)


def aux_consistency_loss(domain_descriptors: dict[str, list[ad.Tensor]],
                         anchor_geos: list[tuple[float, float]],
                         aerial_descriptors: list[ad.Tensor],
                         aerial_geos: list[tuple[float, float]],
                         thresholds: MiningThresholds,
                         margin: float) -> ad.Tensor:
    """Cross-domain contrastive consistency against in-batch references.

    Every (ground domain, anchor, reference) pair contributes a hinge pulling
    geo-close pairs under the margin and pushing geo-far pairs past twice the
    margin; band pairs contribute nothing. Returns zero if no pair lands in
    either zone.
    """
    terms: list[ad.Tensor] = []
    for descs in domain_descriptors.values():
        if len(descs) != len(anchor_geos):
            raise ContractError("one descriptor per anchor required in every domain")
        for a_desc, a_geo in zip(descs, anchor_geos):
            for r_desc, r_geo in zip(aerial_descriptors, aerial_geos):
                d_geo = math.hypot(a_geo[0] - r_geo[0], a_geo[1] - r_geo[1])
                if d_geo < thresholds.tau_p:
                    dist = pair_distance(a_desc, r_desc)
                    terms.append(ad.relu(ad.sub(dist, _const(margin, dist))))
                elif d_geo > thresholds.tau_n:
                    dist = pair_distance(a_desc, r_desc)
                    terms.append(ad.relu(ad.sub(_const(2.0 * margin, dist), dist)))
    if not terms:
        return ad.as_tensor(np.zeros((1, 1), dtype=ad.DEFAULT_DTYPE))
    return _mean(terms)


def query_shift_regularizer(deltas: list[ad.Tensor | None]) -> ad.Tensor:
    """Mean squared Frobenius norm of the per-anchor prototype shifts.

    Anchors without a shift (static or pooling aggregation) contribute exact
    zeros but still count in the denominator.
    """
    if not deltas:
        raise ContractError("regularizer needs at least one anchor")
    terms = [ad.sum_all(ad.mul(d, d)) for d in deltas if d is not None]
    if not terms:
        return ad.as_tensor(np.zeros((1, 1), dtype=ad.DEFAULT_DTYPE))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(deltas))


def total_loss(l_tri: ad.Tensor, l_aux: ad.Tensor, l_q: ad.Tensor,
               weights: LossWeights) -> ad.Tensor:
    return ad.add(
        ad.add(ad.scale(l_tri, weights.triplet), ad.scale(l_aux, weights.aux)),
        ad.scale(l_q, weights.shift),
    )


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    All gradients are validated before any parameter moves, so a divergent
    batch leaves the store at its last finite state. Gradients are cleared
    after the update.
    """
    for name, p in store.items():
        if p._grad is not None and not np.isfinite(p._grad).all():
            raise DivergenceError(f"non-finite gradient in parameter {name!r}")
    store.step += 1
    t = store.step
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for name, p in store.items():
        g = p.grad
        m = store.first_moment[name]
        v = store.second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / correct1) / (np.sqrt(v / correct2) + eps)
        p.value -= lr * update.astype(p.value.dtype)
    store.zero_grads()


def batch_loss(model: PlaceModel, anchors: list, positives: list, negatives: list,
               settings: TrainSettings) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
    """Forward pass of one training batch; returns (l_tri, l_aux, l_q, total).

    ``anchors`` are ground observations; ``positives``/``negatives`` are the
    aerial references mined for them, aligned by position. The union of the
    mined references also serves as the in-batch set for the consistency
    loss.
    """
    ref_pairs: list[tuple[str, object]] = []
    seen: set[str] = set()
    for ref in [*positives, *negatives]:
        if ref.id not in seen:
            seen.add(ref.id)
            ref_pairs.append((ref.id, ref))
    ref_pairs.sort(key=lambda pair: pair[0])
    ref_descs = {rid: model.aerial_descriptor(ref) for rid, ref in ref_pairs}

    fused = [model.ground_forward(obs) for obs in anchors]
    domain_descriptors = {
        "fused": [f.descriptor for f in fused],
        "image": [
            model.ground_forward(obs, mask="image-only", conditioned=False).descriptor
            for obs in anchors
        ],
        "lidar": [
            model.ground_forward(obs, mask="lidar-only", conditioned=False).descriptor
            for obs in anchors
        ],
    }

    l_tri = triplet_loss(
        domain_descriptors["fused"],
        [ref_descs[ref.id] for ref in positives],
        [ref_descs[ref.id] for ref in negatives],
        settings.margin,
    )
    l_aux = aux_consistency_loss(
        domain_descriptors,
        [obs.geo for obs in anchors],
        [ref_descs[rid] for rid, _ in ref_pairs],
        [ref.geo for _, ref in ref_pairs],
        settings.thresholds,
        settings.margin,
    )
    l_q = query_shift_regularizer([f.delta for f in fused])
    return l_tri, l_aux, l_q, total_loss(l_tri, l_aux, l_q, settings.weights)


def train_epoch(model: PlaceModel, dataset: TokenDataset, settings: TrainSettings,
                epoch: int, rng: np.random.Generator) -> EpochMetrics:
    """One pass over the train split in shuffled batches, then a test eval.

    Epoch 0 samples negatives uniformly from the negative zone; later epochs
    pick the hardest zone member by current descriptor distance, refreshed
    once at epoch start. Anchors whose zones are empty are skipped and
    counted.
    """
    settings.validate()
    started = time.perf_counter()
    train_obs = dataset.split_ground("train")
    if not train_obs:
        raise ConfigurationError("train split is empty")
    aerial_geos = [ref.geo for ref in dataset.aerial]

    hard_ground = hard_aerial = None
    if epoch > 0:
        hard_ground = model.embed_ground(train_obs)
        hard_aerial = model.embed_aerial(dataset.aerial)

    order = rng.permutation(len(train_obs))
    sums = {"tri": 0.0, "aux": 0.0, "q": 0.0, "total": 0.0}
    weight = 0
    skipped = 0

    for start in range(0, len(order), settings.batch_size):
        batch_ids = order[start : start + settings.batch_size]
        anchors = []
        pos_idx: list[int] = []
        neg_idx: list[int] = []
        for oi in batch_ids:
            obs = train_obs[oi]
            positives, negatives = mine_pairs(obs.geo, aerial_geos, settings.thresholds)
            if not positives or not negatives:
                skipped += 1
                continue
            best_pos = min(
                positives,
                key=lambda j: math.hypot(
                    obs.geo[0] - aerial_geos[j][0], obs.geo[1] - aerial_geos[j][1]
                ),
            )
            if hard_ground is None:
                chosen_neg = negatives[int(rng.integers(len(negatives)))]
            else:
                anchor_vec = hard_ground[oi]
                chosen_neg = min(
                    negatives,
                    key=lambda j: float(
                        np.linalg.norm(anchor_vec - hard_aerial[j])
                    ),
                )
            anchors.append(obs)
            pos_idx.append(best_pos)
            neg_idx.append(chosen_neg)
        if not anchors:
            continue

        l_tri, l_aux, l_q, batch_total = batch_loss(
            model,
            anchors,
            [dataset.aerial[j] for j in pos_idx],
            [dataset.aerial[j] for j in neg_idx],
            settings,
        )
        ad.backward(batch_total)
        adam_step(model.store, settings.lr)

        n = len(anchors)
        sums["tri"] += l_tri.item() * n
        sums["aux"] += l_aux.item() * n
        sums["q"] += l_q.item() * n
        sums["total"] += batch_total.item() * n
        weight += n

    if weight == 0:
        raise ConfigurationError("every anchor in the epoch was skipped during mining")

    recalls = evaluate_recall(model, dataset, settings)
    return EpochMetrics(
        epoch=epoch,
        l_tri=sums["tri"] / weight,
        l_aux=sums["aux"] / weight,
        l_q=sums["q"] / weight,
        total=sums["total"] / weight,
        recalls=recalls,
        seconds=time.perf_counter() - started,
        skipped_anchors=skipped,
    )


def evaluate_recall(model: PlaceModel, dataset: TokenDataset,
                    settings: TrainSettings, split: str = "test",
                    mask: str = "both") -> dict[int, float]:
    """Recall@K of the given split's queries against the full reference set."""
    queries = dataset.split_ground(split)
    if not queries or not dataset.aerial:
        return {k: float("nan") for k in settings.eval_ks}
    db = retrieval.DescriptorDatabase(
        ids=[ref.id for ref in dataset.aerial],
        geos=np.array([ref.geo for ref in dataset.aerial], dtype=np.float64),
        vectors=model.embed_aerial(dataset.aerial),
    )
    query_vecs = model.embed_ground(queries, mask=mask)
    query_geos = np.array([obs.geo for obs in queries], dtype=np.float64)
    report = retrieval.recall_at_k(
        query_vecs, query_geos, db, ks=settings.eval_ks, radius=settings.eval_radius
    )
    return report.recalls
