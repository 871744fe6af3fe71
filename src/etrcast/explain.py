"""Interpretability: attention-weight extraction and Shapley attributions.

Attention side: a forward pass over one event captures every layer's softmax
matrices; a seeded subset of heads per layer (default: all heads) is averaged
into one matrix per layer, exported as plain numeric grids with queries on
rows and keys on columns. Capturing reads weights out of the forward pass and
never changes a prediction.

Attribution side: Monte-Carlo permutation Shapley values over the feature
slots of a prefix's final revision. Each sampled permutation draws one
background row and walks the permutation, switching features from background
to sample values; one predict call scores the d+1 coalition states of K
permutations at once (K = ROWS_PER_CALL // (d+1)), and marginal contributions
are averaged per feature. Every permutation keeps its own seed (seed, t) and
its contributions are summed in permutation order, so results do not depend
on K.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ModelParams, SequenceBatch, predict

PredictFn = Callable[[SequenceBatch], np.ndarray]

# Rows per Shapley predict call: enough to amortise per-call overhead; above
# about 128 rows peak memory grows for little further speed.
ROWS_PER_CALL = 96


# -- attention ----------------------------------------------------------------


@dataclass(frozen=True)
class LayerAttention:
    layer: int
    head_indices: tuple[int, ...]
    head_weights: np.ndarray  # [n_selected, S, S]
    mean_weights: np.ndarray  # [S, S] arithmetic mean over the selected heads


@dataclass(frozen=True)
class AttentionStack:
    layers: tuple[LayerAttention, ...]
    valid_len: int


def extract_attention(
    params: ModelParams,
    batch: SequenceBatch,
    layers: Sequence[int] | None = None,
    heads: Sequence[int] | None = None,
    n_random_heads: int | None = None,
    seed: int = 0,
) -> AttentionStack:
    """Capture attention matrices for a single-event batch.

    ``heads`` selects explicit head indices for every layer; otherwise
    ``n_random_heads`` are drawn per layer with the seed (all heads when
    neither is given). Selection is per layer, mirroring sampling heads
    within each layer.
    """
    if batch.size != 1:
        raise ValueError("extract_attention expects a single-event batch")
    cfg = params.config
    layer_ids = list(range(cfg.n_layers)) if layers is None else sorted(set(layers))
    for layer in layer_ids:
        if not 0 <= layer < cfg.n_layers:
            raise ValueError(f"layer index {layer} out of range [0, {cfg.n_layers})")
    if heads is not None:
        for h in heads:
            if not 0 <= h < cfg.n_heads:
                raise ValueError(f"head index {h} out of range [0, {cfg.n_heads})")

    captured: list[np.ndarray] = []
    predict(params, batch, capture=captured)
    rng = np.random.default_rng(seed)
    out = []
    for layer in layer_ids:
        weights = captured[layer][0]  # [H, S, S]
        if heads is not None:
            chosen = tuple(heads)
        elif n_random_heads is not None:
            n = min(n_random_heads, cfg.n_heads)
            chosen = tuple(sorted(rng.choice(cfg.n_heads, size=n, replace=False).tolist()))
        else:
            chosen = tuple(range(cfg.n_heads))
        picked = weights[list(chosen)]
        out.append(
            LayerAttention(
                layer=layer,
                head_indices=chosen,
                head_weights=picked,
                mean_weights=picked.mean(axis=0),
            )
        )
    return AttentionStack(layers=tuple(out), valid_len=int(batch.lengths[0]))


def export_heatmap(stack: AttentionStack, out_dir: str, prefix: str = "attention") -> list[str]:
    """One numeric grid file per layer: query rows by key columns, full precision."""
    os.makedirs(out_dir, exist_ok=True)
    n = stack.valid_len
    paths = []
    for layer_attn in stack.layers:
        grid = layer_attn.mean_weights[:n, :n]
        path = os.path.join(out_dir, f"{prefix}_layer{layer_attn.layer}.txt")
        lines = [
            f"# attention heatmap layer={layer_attn.layer} "
            f"heads={','.join(map(str, layer_attn.head_indices))} "
            f"rows=queries cols=keys n={n}"
        ]
        for row in grid:
            lines.append(" ".join(repr(float(v)) for v in row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


# -- Shapley attributions -------------------------------------------------------


@dataclass(frozen=True)
class AttributionSet:
    """Per-feature Shapley estimates for one prefix sample, in hours."""

    feature_names: tuple[str, ...]
    values: np.ndarray  # [d]
    std_errors: np.ndarray  # [d]
    n_permutations: int
    prediction: float
    background_mean: float  # mean prediction over the drawn background rows
    revision_index: int

    def efficiency_residual(self) -> float:
        return float(self.values.sum() - (self.prediction - self.background_mean))


def final_revision_features(batch: SequenceBatch) -> tuple[np.ndarray, np.ndarray]:
    """Final-revision (cat, cont) feature rows of each sample in a batch."""
    rows, last = np.arange(batch.size), batch.lengths - 1
    return batch.cat_idx[rows, last], batch.cont[rows, last]


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned about
def shapley_attributions(
    predict_fn: PredictFn,
    sample: SequenceBatch,
    background_cat: np.ndarray,
    background_cont: np.ndarray,
    n_permutations: int,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> AttributionSet:
    """Permutation-sampling Shapley values over the final revision's features.

    The prefix context (all earlier revisions, deltas, mask) is held fixed;
    only the d = p + q feature slots of the last valid revision switch between
    the sample's values and a background draw's values. Raises ``ValueError``
    when an attribution, a standard error, the prediction or the background
    mean is not finite.
    """
    if sample.size != 1:
        raise ValueError("shapley_attributions expects a single-sample batch")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if background_cat.shape[0] == 0 or background_cat.shape[0] != background_cont.shape[0]:
        raise ValueError("background set must be non-empty and consistent")
    p = sample.cat_idx.shape[2]
    q = sample.cont.shape[2]
    d = p + q
    if background_cat.shape[1] != p or background_cont.shape[1] != q:
        raise ValueError(
            f"background feature counts {background_cat.shape[1]}+{background_cont.shape[1]} "
            f"do not match the sample's {p}+{q}"
        )
    if feature_names is not None and len(feature_names) != d:
        raise ValueError(f"expected {d} feature names, got {len(feature_names)}")
    names = tuple(feature_names) if feature_names is not None else tuple(
        [f"cat_{i}" for i in range(p)] + [f"cont_{i}" for i in range(q)]
    )

    last = int(sample.lengths[0]) - 1
    sample_cat = sample.cat_idx[0, last]
    sample_cont = sample.cont[0, last]
    k = background_cat.shape[0]
    per_call = max(1, ROWS_PER_CALL // (d + 1))

    # K permutations x (d+1) coalition states share the sample's context rows;
    # only the final revision's slots are rewritten per call
    rows = per_call * (d + 1)
    cat = np.repeat(sample.cat_idx, rows, axis=0)
    cont = np.repeat(sample.cont, rows, axis=0)
    deltas = np.repeat(sample.deltas, rows, axis=0)
    mask = np.repeat(sample.mask, rows, axis=0)

    prediction = float(predict_fn(sample)[0])
    sums = np.zeros(d)
    sumsq = np.zeros(d)
    bg_pred_sum = 0.0

    for start in range(0, n_permutations, per_call):
        draws, perms = [], []
        for t in range(start, min(start + per_call, n_permutations)):
            rng = np.random.default_rng((seed, t))
            draws.append(int(rng.integers(0, k)))
            perms.append(rng.permutation(d))
        perms = np.asarray(perms)  # [K, d]
        n = perms.shape[0] * (d + 1)
        rank = np.argsort(perms, axis=1)  # the inverse: rank[perm] = arange(d)
        # state s holds the first s features of the permutation at sample values
        on = rank[:, None, :] < np.arange(d + 1)[None, :, None]  # [K, d+1, d]
        bg_cat, bg_cont = background_cat[draws][:, None], background_cont[draws][:, None]
        cat[:n, last] = np.where(on[..., :p], sample_cat, bg_cat).reshape(n, p)
        cont[:n, last] = np.where(on[..., p:], sample_cont, bg_cont).reshape(n, q)

        batch = SequenceBatch(cat[:n], cont[:n], deltas[:n], mask[:n])
        preds = predict_fn(batch).reshape(-1, d + 1)
        diffs = np.diff(preds, axis=1)
        # unbuffered and row-major, so every sum below runs in permutation order
        np.add.at(sums, perms.ravel(), diffs.ravel())
        np.add.at(sumsq, perms.ravel(), (diffs * diffs).ravel())
        for value in preds[:, 0]:
            bg_pred_sum += value

    values = sums / n_permutations
    var = np.maximum(sumsq / n_permutations - values * values, 0.0)
    std_errors = np.sqrt(var / n_permutations)
    background_mean = bg_pred_sum / n_permutations
    for what, value in (
        ("attributions", values),
        ("standard errors", std_errors),
        ("prediction", prediction),
        ("background mean", background_mean),
    ):
        if not np.isfinite(value).all():
            raise ValueError(f"shapley_attributions: non-finite {what}; predictions too large")
    return AttributionSet(
        feature_names=names,
        values=values,
        std_errors=std_errors,
        n_permutations=n_permutations,
        prediction=prediction,
        background_mean=background_mean,
        revision_index=last + 1,
    )


@dataclass(frozen=True)
class TopkReport:
    """Per-revision-index feature ranking by mean absolute attribution."""

    per_revision: dict[int, tuple[tuple[str, float], ...]]
    notes: tuple[str, ...]


def aggregate_topk(
    attribution_sets: Sequence[AttributionSet], revision_range: int, k: int
) -> TopkReport:
    """Rank features by mean |attribution| per revision index 1..revision_range."""
    if revision_range < 1 or k < 1:
        raise ValueError("revision_range and k must be >= 1")
    per_revision: dict[int, tuple[tuple[str, float], ...]] = {}
    notes: list[str] = []
    for j in range(1, revision_range + 1):
        bucket = [a for a in attribution_sets if a.revision_index == j]
        if not bucket:
            notes.append(f"revision index {j}: no samples; skipped")
            continue
        names = bucket[0].feature_names
        for a in bucket:
            if a.feature_names != names:
                raise ValueError("attribution sets disagree on feature names")
        mean_abs = np.mean([np.abs(a.values) for a in bucket], axis=0)
        ranked = sorted(zip(names, mean_abs.tolist()), key=lambda nv: (-nv[1], nv[0]))
        per_revision[j] = tuple(ranked[: min(k, len(names))])
    return TopkReport(per_revision=per_revision, notes=tuple(notes))


def write_topk(report: TopkReport, path: str) -> None:
    """Plain-text ranking table: revision, rank, feature, mean |attribution|."""
    lines = ["# columns: revision rank feature mean_abs_attribution_hours"]
    for j in sorted(report.per_revision):
        for rank, (name, score) in enumerate(report.per_revision[j], start=1):
            lines.append(f"{j} {rank} {name} {score!r}")
    for note in report.notes:
        lines.append(f"# note: {note}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_attributions(sets: Sequence[AttributionSet], path: str) -> None:
    """Per-sample attribution table with raw and normalized columns."""
    lines = [
        "# columns: revision feature value_hours std_error normalized_share",
    ]
    for a in sets:
        total = float(np.abs(a.values).sum())
        for name, value, se in zip(a.feature_names, a.values, a.std_errors):
            share = abs(value) / total if total > 0 else 0.0
            numbers = " ".join(repr(float(x)) for x in (value, se, share))
            lines.append(f"{a.revision_index} {name} {numbers}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
