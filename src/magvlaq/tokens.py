"""Token dataset model, MAGT file round-trip, validation, and synthesis.

A dataset holds ground observations (paired image/lidar token sets over L
scales, geo-tagged) and aerial references (single-scale token sets). The
synthetic generator replaces live encoders: each place gets a latent vector
and fixed random linear maps emit its token matrices per modality/scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import magt
from .errors import ConfigurationError, DatasetValidationError

GROUND_IMAGE = "ground-image"
GROUND_LIDAR = "ground-lidar"
AERIAL = "aerial"
SPLITS = ("train", "test")


@dataclass
class TokenSet:
    """Multi-scale token matrices for one observation of one modality."""

    id: str
    kind: str
    geo: tuple[float, float]
    scales: list[np.ndarray]

    @property
    def raw_dim(self) -> int:
        return self.scales[0].shape[1] if self.scales else 0


@dataclass
class GroundObservation:
    """One ground capture: image and lidar token sets sharing a geo-location."""

    id: str
    image: TokenSet
    lidar: TokenSet
    split: str

    @property
    def geo(self) -> tuple[float, float]:
        return self.image.geo


@dataclass
class AerialReference:
    """One aerial database entry of a single map modality."""

    id: str
    token_set: TokenSet
    modality_tag: str

    @property
    def geo(self) -> tuple[float, float]:
        return self.token_set.geo


@dataclass
class TokenDataset:
    ground: list[GroundObservation] = field(default_factory=list)
    aerial: list[AerialReference] = field(default_factory=list)

    def split_ground(self, split: str) -> list[GroundObservation]:
        return [g for g in self.ground if g.split == split]


class Violation(NamedTuple):
    entry_id: str
    rule: str


def _check_token_set(ts: TokenSet, kind: str, out: list[Violation], finite: bool) -> None:
    if not ts.id or "#" in ts.id:
        out.append(Violation(ts.id, "bad-id"))
    if ts.kind != kind:
        out.append(Violation(ts.id, "wrong-kind"))
    if not all(math.isfinite(c) for c in ts.geo):
        out.append(Violation(ts.id, "bad-geo"))
    if not ts.scales:
        out.append(Violation(ts.id, "empty-scales"))
        return
    dim = ts.scales[0].shape[1]
    for arr in ts.scales:
        if arr.ndim != 2 or arr.shape[0] < 1:
            out.append(Violation(ts.id, "empty-tokens"))
        elif arr.shape[1] != dim:
            out.append(Violation(ts.id, "raw-dim-mismatch"))
        if not finite and not np.isfinite(arr).all():
            out.append(Violation(ts.id, "non-finite-tokens"))


def validate_dataset(dataset: TokenDataset, tau_p: float = 10.0,
                     finite: bool = False) -> list[Violation]:
    """Check every structural invariant; empty result means the dataset is valid.

    Train-split ground observations also need at least one aerial reference
    within ``tau_p`` meters, otherwise they are flagged as orphan queries.
    ``finite`` skips the per-matrix finiteness scan: every token is known finite.
    """
    out: list[Violation] = []
    seen_ground: set[str] = set()
    for obs in dataset.ground:
        if obs.id in seen_ground:
            out.append(Violation(obs.id, "duplicate-id"))
        seen_ground.add(obs.id)
        if not obs.id or "#" in obs.id:
            out.append(Violation(obs.id, "bad-id"))
        if obs.split not in SPLITS:
            out.append(Violation(obs.id, "bad-split"))
        _check_token_set(obs.image, GROUND_IMAGE, out, finite)
        _check_token_set(obs.lidar, GROUND_LIDAR, out, finite)
        if obs.image.geo != obs.lidar.geo:
            out.append(Violation(obs.id, "geo-mismatch"))
        if len(obs.image.scales) != len(obs.lidar.scales):
            out.append(Violation(obs.id, "scale-count-mismatch"))

    seen_aerial: set[str] = set()
    for ref in dataset.aerial:
        if ref.id in seen_aerial:
            out.append(Violation(ref.id, "duplicate-id"))
        seen_aerial.add(ref.id)
        if not isinstance(ref.modality_tag, str):
            out.append(Violation(ref.id, "bad-modality-tag"))
        elif not ref.modality_tag:
            out.append(Violation(ref.id, "missing-modality-tag"))
        _check_token_set(ref.token_set, AERIAL, out, finite)

    tags = {ref.modality_tag for ref in dataset.aerial if isinstance(ref.modality_tag, str)}
    if len(tags) > 1:
        out.append(Violation(sorted(tags)[0], "mixed-modality-tags"))

    train = dataset.split_ground("train")
    near = geo_distances([obs.geo for obs in train], [ref.geo for ref in dataset.aerial]) < tau_p
    out.extend(Violation(obs.id, "orphan-query") for obs, row in zip(train, near) if not row.any())
    return out


def geo_distances(a_geos: Sequence[tuple[float, float]],
                  b_geos: Sequence[tuple[float, float]]) -> np.ndarray:
    """Float64 ``len(a_geos)`` x ``len(b_geos)`` matrix of the planar
    distances (meters) between two lists of geo-positions: ``math.hypot`` of
    each pair's coordinate differences."""
    pairs = (math.hypot(ax - bx, ay - by) for ax, ay in a_geos for bx, by in b_geos)
    count = len(a_geos) * len(b_geos)
    return np.fromiter(pairs, np.float64, count).reshape(len(a_geos), len(b_geos))


def save_token_file(dataset: TokenDataset, path: str | Path, tau_p: float = 10.0) -> int:
    """Serialize a validated dataset to a MAGT file; returns bytes written."""
    violations = validate_dataset(dataset, tau_p=tau_p)
    if violations:
        v = violations[0]
        raise DatasetValidationError(
            f"dataset invalid ({len(violations)} violation(s)); first: "
            f"{v.rule} on {v.entry_id!r}"
        )

    def entry(entry_id: str, ts: TokenSet, split: str, **meta) -> magt.ContainerEntry:
        return magt.ContainerEntry(
            meta={"id": entry_id, "kind": ts.kind, "split": split,
                  "geo": [float(ts.geo[0]), float(ts.geo[1])], **meta},
            tensors={f"scale_{i}": arr for i, arr in enumerate(ts.scales)},
        )

    entries = [
        entry(f"{obs.id}#{part}", getattr(obs, part), obs.split)
        for obs in dataset.ground for part in ("image", "lidar")
    ]
    entries += [
        entry(ref.id, ref.token_set, "db", modality_tag=ref.modality_tag)
        for ref in dataset.aerial
    ]
    return magt.write_container(entries, path)


def _entry_token_set(entry: magt.ContainerEntry, set_id: str) -> TokenSet:
    names = list(entry.tensors)
    expected = [f"scale_{i}" for i in range(len(names))]
    if names != expected:
        raise DatasetValidationError(
            f"entry {entry.meta.get('id')!r}: tensor names {names} are not consecutive scales"
        )
    geo_raw = entry.meta.get("geo")
    try:
        if not (isinstance(geo_raw, list) and len(geo_raw) == 2 and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in geo_raw
        )):
            raise TypeError
        # a JSON integer too large for a float overflows here
        geo = (float(geo_raw[0]), float(geo_raw[1]))
    except (TypeError, OverflowError):
        raise DatasetValidationError(
            f"entry {entry.meta.get('id')!r}: malformed geo"
        ) from None
    return TokenSet(
        id=set_id,
        kind=entry.meta.get("kind", ""),
        geo=geo,
        scales=[entry.tensors[n] for n in expected],
    )


def load_token_file(path: str | Path, tau_p: float = 10.0) -> TokenDataset:
    """Read a MAGT dataset file and re-validate every invariant."""
    entries = magt.read_container(path)
    ground_parts: dict[str, dict[str, TokenSet]] = {}
    ground_split: dict[str, str] = {}
    aerial: list[AerialReference] = []
    for entry in entries:
        kind = entry.meta.get("kind")
        entry_id = entry.meta.get("id")
        if not isinstance(entry_id, str) or not entry_id:
            raise DatasetValidationError(f"{path}: entry with missing id")
        if kind in (GROUND_IMAGE, GROUND_LIDAR):
            base, _, part = entry_id.rpartition("#")
            if part not in ("image", "lidar") or not base:
                raise DatasetValidationError(
                    f"{path}: ground entry id {entry_id!r} lacks an #image/#lidar suffix"
                )
            ts = _entry_token_set(entry, base)
            parts = ground_parts.setdefault(base, {})
            if part in parts:
                raise DatasetValidationError(f"{path}: duplicate entry {entry_id!r}")
            parts[part] = ts
            split = entry.meta.get("split")
            if base in ground_split and ground_split[base] != split:
                raise DatasetValidationError(f"{path}: split mismatch for {base!r}")
            ground_split[base] = split
        elif kind == AERIAL:
            ts = _entry_token_set(entry, entry_id)
            tag = entry.meta.get("modality_tag", "")
            aerial.append(AerialReference(id=entry_id, token_set=ts, modality_tag=tag))
        else:
            raise DatasetValidationError(f"{path}: entry {entry_id!r} has unknown kind {kind!r}")

    ground = []
    for base, parts in ground_parts.items():
        if set(parts) != {"image", "lidar"}:
            raise DatasetValidationError(
                f"{path}: observation {base!r} is missing its "
                f"{'lidar' if 'lidar' not in parts else 'image'} entry"
            )
        ground.append(GroundObservation(id=base, image=parts["image"], lidar=parts["lidar"],
                                        split=str(ground_split[base])))
    dataset = TokenDataset(ground=ground, aerial=aerial)
    # one pass; a NaN (maybe between tensors) or overflow leaves validate_dataset the exact scan
    buffer = next((t.base for e in entries for t in e.tensors.values()), np.empty(0))
    violations = validate_dataset(dataset, tau_p, bool(np.isfinite(buffer.sum())))
    if violations:
        v = violations[0]
        raise DatasetValidationError(f"{path}: {v.rule} on {v.entry_id!r}")
    return dataset


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic token generator.

    Places sit on a square grid with ``place_spacing`` meters between
    neighbors, which must exceed ``tau_n`` so no reference falls into the
    ambiguous band of another place. Ground observations jitter within
    ``tau_p/2`` of their place center, so every query keeps a positive.
    """

    num_places: int = 16
    place_spacing: float = 50.0
    train_per_place: int = 4
    test_per_place: int = 2
    num_scales: int = 4
    tokens_per_scale: int = 64
    token_dim: int = 96
    latent_dim: int = 16
    noise: float = 0.1
    tau_p: float = 10.0
    tau_n: float = 25.0
    modality_tag: str = "satellite"

    def validate(self) -> None:
        if self.num_places < 2:
            raise ConfigurationError("synthetic generation needs at least 2 places")
        if self.place_spacing <= self.tau_n:
            raise ConfigurationError(
                f"place spacing {self.place_spacing} must exceed the negative "
                f"threshold {self.tau_n} to avoid ambiguous supervision"
            )
        if self.tau_n <= self.tau_p:
            raise ConfigurationError("tau_n must exceed tau_p")
        if self.tokens_per_scale < 2 or self.tokens_per_scale % 2 != 0:
            raise ConfigurationError("tokens_per_scale must be even and >= 2")
        if min(self.num_scales, self.token_dim, self.latent_dim, self.train_per_place) < 1:
            raise ConfigurationError("scale/dim/observation counts must be positive")
        if self.noise < 0:
            raise ConfigurationError("noise must be non-negative")


@dataclass
class SynthGroundTruth:
    """Latents and linear maps behind a synthetic dataset, for oracle checks."""

    place_latents: np.ndarray
    place_centers: np.ndarray
    ground_place: dict[str, int]
    aerial_place: dict[str, int]
    ground_maps: dict[str, list[np.ndarray]]
    aerial_map: np.ndarray


def _token_map(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """Draw one (tokens, token_dim, latent_dim) map whose tokens come in +/- pairs.

    Pairing makes every noiseless token matrix sum to zero over the token
    axis, so mean pooling carries no place signal while token-level structure
    carries all of it.
    """
    half = cfg.tokens_per_scale // 2
    block = rng.normal(
        0.0, 1.0 / np.sqrt(cfg.latent_dim), size=(half, cfg.token_dim, cfg.latent_dim)
    )
    return np.concatenate([block, -block], axis=0)


def _emit_tokens(amap: np.ndarray, latent: np.ndarray, noise: float,
                 rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Write one noisy token matrix into the float32 ``out`` and return it."""
    clean = amap @ latent
    if noise > 0:
        clean = clean + rng.normal(0.0, noise, size=clean.shape)
    out[...] = clean
    return out


def generate_with_ground_truth(
    config: SynthConfig, seed: int
) -> tuple[TokenDataset, SynthGroundTruth]:
    """Deterministic synthesis of (dataset, generator internals) from (config, seed)."""
    config.validate()
    rng = np.random.default_rng(seed)

    grid = math.ceil(math.sqrt(config.num_places))
    centers = np.array(
        [
            (config.place_spacing * (k % grid), config.place_spacing * (k // grid))
            for k in range(config.num_places)
        ],
        dtype=np.float64,
    )
    latents = rng.normal(0.0, 1.0, size=(config.num_places, config.latent_dim))
    ground_maps = {
        modality: [_token_map(rng, config) for _ in range(config.num_scales)]
        for modality in ("image", "lidar")
    }
    aerial_map = _token_map(rng, config)
    per_place = config.train_per_place + config.test_per_place
    # every token matrix is a view of one float32 block, as in a loaded file,
    # so a dataset's tokens are allocated and freed as one
    views = iter(np.empty((config.num_places * (2 * per_place * config.num_scales + 1),
                           *aerial_map.shape[:2]), dtype=np.float32))

    jitter_radius = config.tau_p / 2.0
    ground: list[GroundObservation] = []
    ground_place: dict[str, int] = {}
    for k in range(config.num_places):
        for j in range(per_place):
            obs_id = f"g{k:03d}_{j:02d}"
            split = "train" if j < config.train_per_place else "test"
            radius = jitter_radius * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            geo = (
                float(centers[k, 0] + radius * math.cos(angle)),
                float(centers[k, 1] + radius * math.sin(angle)),
            )
            sets = {}
            for modality, kind in (("image", GROUND_IMAGE), ("lidar", GROUND_LIDAR)):
                scales = [
                    _emit_tokens(ground_maps[modality][s], latents[k], config.noise, rng,
                                 next(views))
                    for s in range(config.num_scales)
                ]
                sets[modality] = TokenSet(id=obs_id, kind=kind, geo=geo, scales=scales)
            ground.append(
                GroundObservation(
                    id=obs_id, image=sets["image"], lidar=sets["lidar"], split=split
                )
            )
            ground_place[obs_id] = k

    aerial: list[AerialReference] = []
    aerial_place: dict[str, int] = {}
    for k in range(config.num_places):
        ref_id = f"a{k:03d}"
        geo = (float(centers[k, 0]), float(centers[k, 1]))
        tokens = _emit_tokens(aerial_map, latents[k], config.noise, rng, next(views))
        aerial.append(
            AerialReference(
                id=ref_id,
                token_set=TokenSet(id=ref_id, kind=AERIAL, geo=geo, scales=[tokens]),
                modality_tag=config.modality_tag,
            )
        )
        aerial_place[ref_id] = k

    dataset = TokenDataset(ground=ground, aerial=aerial)
    truth = SynthGroundTruth(
        place_latents=latents,
        place_centers=centers,
        ground_place=ground_place,
        aerial_place=aerial_place,
        ground_maps={
            m: [a.reshape(-1, config.latent_dim) for a in ground_maps[m]]
            for m in ("image", "lidar")
        },
        aerial_map=aerial_map.reshape(-1, config.latent_dim),
    )
    return dataset, truth


def generate_synthetic_dataset(config: SynthConfig, seed: int) -> TokenDataset:
    """Pure function of (config, seed); see generate_with_ground_truth."""
    dataset, _ = generate_with_ground_truth(config, seed)
    return dataset
