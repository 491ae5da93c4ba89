"""Independent reference implementations the tests compare the model against."""

from __future__ import annotations

import math

import numpy as np

from magvlaq import autodiff as ad
from magvlaq import retrieval, training
from magvlaq.errors import ContractError, DegenerateInputError, DivergenceError
from magvlaq.model import PlaceModel
from magvlaq.params import ParamStore


def brute_force_vlaq(tokens: np.ndarray, prototypes: np.ndarray,
                     proj_w: np.ndarray) -> np.ndarray:
    """Reference aggregation with explicit loops and naive exp; for testing.

    Mirrors vlaq_descriptor including the degenerate-row conventions, but
    shares none of its code path.
    """
    n, d = tokens.shape
    s = prototypes.shape[0]
    logits = [[0.0] * s for _ in range(n)]
    for i in range(n):
        for q in range(s):
            acc = 0.0
            for j in range(d):
                acc += float(tokens[i, j]) * float(prototypes[q, j])
            logits[i][q] = acc / math.sqrt(d)

    alpha = [[0.0] * s for _ in range(n)]
    for q in range(s):
        peak = max(logits[i][q] for i in range(n))
        denom = 0.0
        for i in range(n):
            denom += math.exp(logits[i][q] - peak)
        for i in range(n):
            alpha[i][q] = math.exp(logits[i][q] - peak) / denom

    residuals = [[0.0] * d for _ in range(s)]
    for q in range(s):
        for j in range(d):
            acc = 0.0
            for i in range(n):
                acc += alpha[i][q] * (float(tokens[i, j]) - float(prototypes[q, j]))
            residuals[q][j] = acc

    for q in range(s):
        norm = math.sqrt(sum(residuals[q][j] ** 2 for j in range(d)))
        if norm <= 1e-12:
            for j in range(d):
                residuals[q][j] = 0.0
        else:
            for j in range(d):
                residuals[q][j] /= norm

    flat = [residuals[q][j] for q in range(s) for j in range(d)]
    out_dim = proj_w.shape[1]
    out = [0.0] * out_dim
    for k in range(out_dim):
        acc = 0.0
        for m in range(s * d):
            acc += flat[m] * float(proj_w[m, k])
        out[k] = acc

    norm = math.sqrt(sum(v * v for v in out))
    if norm <= 1e-12:
        raise DegenerateInputError("descriptor norm vanished in reference aggregation")
    return np.array([[v / norm for v in out]], dtype=np.float64)


# The list-based training loss: one sub-tape per descriptor and one
# pair_distance subgraph per compared pair. The batched training.batch_loss
# must agree with it up to summation order.


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
                         thresholds: training.MiningThresholds,
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


def batch_loss(model: PlaceModel, anchors: list, positives: list, negatives: list,
               settings: training.TrainSettings) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
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
    l_q = training.query_shift_regularizer([f.delta for f in fused])
    return l_tri, l_aux, l_q, training.total_loss(l_tri, l_aux, l_q, settings.weights)


# Adam with a fresh array per intermediate; training.adam_step must match
# it bit for bit.


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


# Exact search as it ran before the database cached its squared norms and id
# ranks: both are recomputed on every call. retrieval.knn_search must match it
# bit for bit, indices and distances.


def knn_search(query_vecs: np.ndarray, db: retrieval.DescriptorDatabase,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference indices and distances per query, exact and stable.

    Equal distances are ordered by ascending reference id, so the ranking is
    a pure function of the inputs.
    """
    if not 1 <= k <= len(db):
        raise ContractError(f"k must be in [1, {len(db)}], got {k}")
    dists = retrieval.distance_matrix(query_vecs, db.vectors)
    id_rank = np.argsort(np.argsort(db.ids, kind="stable"), kind="stable")
    indices = np.empty((dists.shape[0], k), dtype=np.int64)
    out_d = np.empty((dists.shape[0], k), dtype=np.float64)
    for qi in range(dists.shape[0]):
        order = np.lexsort((id_rank, dists[qi]))[:k]
        indices[qi] = order
        out_d[qi] = dists[qi, order]
    return indices, out_d
