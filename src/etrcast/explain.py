"""Interpretability: attention-weight extraction and Shapley attributions.

Attention side: a forward pass over one event captures every layer's softmax
matrices; a seeded random subset of heads per layer (default: all heads) is
averaged into one matrix per layer, exported as plain numeric grids with
queries on rows and keys on columns. Capturing reads weights out of the
forward pass and never changes a prediction.

Attribution side: Monte-Carlo permutation Shapley values (Strumbelj &
Kononenko 2014) over the feature slots of a prefix's final revision. Each
sampled permutation draws one background row and walks the permutation,
switching features from background to sample values; marginal contributions
are averaged per feature. An attribution is a prediction pass: each block of
whole permutations (at most ``BLOCK_CHUNKS`` x ``CHUNK_SLOTS`` coalition rows)
is deduplicated by exact bytes, and each predict call scores as many distinct
rows as fit in ``CHUNK_SLOTS`` token slots, over a ``TokenFront`` of the
sample's rows plus the call's final rows, so the weights are bound once per
attribution and the context's front computed once per call. State d is the
sample itself and gives ``prediction``. Permutation t draws from its own seed
(seed, t) and sums run in permutation order, whatever the chunking.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ModelParams, SequenceBatch, TokenFront, predict, token_batch
from .training import CHUNK_SLOTS

PredictFn = Callable[[SequenceBatch], np.ndarray]
BLOCK_CHUNKS = 16  # coalition rows deduplicated at once, in CHUNK_SLOTS


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
    params: ModelParams, batch: SequenceBatch, n_random_heads: int | None = None, seed: int = 0
) -> AttentionStack:
    """Capture every layer's attention matrices for a single-event batch.

    ``n_random_heads`` heads, at most ``n_heads``, are drawn per layer with the
    seed (all heads when it is not given), mirroring sampling heads within
    each layer.
    """
    if batch.size != 1:
        raise ValueError("extract_attention expects a single-event batch")
    cfg = params.config
    captured: list[np.ndarray] = []
    predict(params, batch, capture=captured)
    rng = np.random.default_rng(seed)
    out = []
    for layer in range(cfg.n_layers):
        chosen = tuple(range(cfg.n_heads))
        if n_random_heads is not None:
            picks = rng.choice(cfg.n_heads, size=n_random_heads, replace=False)
            chosen = tuple(sorted(picks.tolist()))
        picked = captured[layer][0][list(chosen)]  # [n_selected, S, S]
        out.append(LayerAttention(layer, chosen, picked, picked.mean(axis=0)))
    return AttentionStack(layers=tuple(out), valid_len=int(batch.lengths[0]))


def export_heatmap(stack: AttentionStack, out_dir: str) -> list[str]:
    """One numeric grid file per layer: query rows by key columns, full precision."""
    os.makedirs(out_dir, exist_ok=True)
    n = stack.valid_len
    paths = []
    for layer_attn in stack.layers:
        grid = layer_attn.mean_weights[:n, :n]
        path = os.path.join(out_dir, f"attention_layer{layer_attn.layer}.txt")
        lines = [
            f"# attention heatmap layer={layer_attn.layer} "
            f"heads={','.join(map(str, layer_attn.head_indices))} "
            f"rows=queries cols=keys n={n}"
        ]
        lines += [" ".join(repr(float(v)) for v in row) for row in grid]
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


def distinct_rows(cat: np.ndarray, cont: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows by exact bytes (so -0.0 != 0.0): first indices in order, each row's index."""
    keys = np.hstack([cat.astype(np.int64), cont.astype(np.float64).view(np.int64)])
    index: dict[bytes, int] = {}
    void = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    inverse = np.array([index.setdefault(key, len(index)) for key in void.tolist()], np.intp)
    return np.unique(inverse, return_index=True)[1], inverse


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
    p, q = sample.cat_idx.shape[2], sample.cont.shape[2]
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
    sample_cat, sample_cont = sample.cat_idx[0, last], sample.cont[0, last]
    per_call = max(1, CHUNK_SLOTS // ((d + 1) * (last + 1))) * (d + 1)  # rows x width
    per_block = max(1, BLOCK_CHUNKS * CHUNK_SLOTS // (d + 1))  # whole permutations
    sums, sumsq, bg_pred_sum = np.zeros(d), np.zeros(d), 0.0

    # tokens 0..last are the sample's rows; a call appends its final rows
    own = TokenFront(*(a[0, : last + 1] for a in (sample.cat_idx, sample.cont, sample.deltas)))
    with closing(own):
        for start in range(0, n_permutations, per_block):
            draws, perms = [], []
            for t in range(start, min(start + per_block, n_permutations)):
                rng = np.random.default_rng((seed, t))
                draws.append(int(rng.integers(0, len(background_cat))))
                perms.append(rng.permutation(d))
            perms = np.asarray(perms)  # [K, d]
            rank = np.argsort(perms, axis=1)  # the inverse: rank[perm] = arange(d)
            # state s holds the first s features of the permutation at sample values
            on = rank[:, None, :] < np.arange(d + 1)[None, :, None]  # [K, d+1, d]
            cat = np.where(on[..., :p], sample_cat, background_cat[draws, None]).reshape(-1, p)
            cont = np.where(on[..., p:], sample_cont, background_cont[draws, None]).reshape(-1, q)
            first, inverse = distinct_rows(cat, cont)
            # fill to whole permutations with row d, as calls were before: gemv sums an odd
            # call's last row in another order, and a null feature's states would then differ
            first = np.concatenate([first, np.full(-first.size % (d + 1), d)])
            upreds = np.empty(first.size)
            for lo in range(0, first.size, per_call):
                rows = first[lo : lo + per_call]
                m = rows.size
                chunk = own.extend(cat[rows], cont[rows], np.full(m, own.rows[2][last]))
                ids = np.column_stack([np.tile(np.arange(last), (m, 1)), last + 1 + np.arange(m)])
                upreds[lo : lo + m] = predict_fn(token_batch(chunk, ids, np.ones(ids.shape, bool)))
            preds = upreds[inverse].reshape(-1, d + 1)
            diffs = np.diff(preds, axis=1)
            # unbuffered and row-major, so every sum below runs in permutation order
            np.add.at(sums, perms.ravel(), diffs.ravel())
            np.add.at(sumsq, perms.ravel(), (diffs * diffs).ravel())
            for value in preds[:, 0]:
                bg_pred_sum += value

    prediction = float(preds[0, d])  # state d of every permutation is the sample itself
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
        names, values, std_errors, n_permutations, prediction, background_mean, last + 1
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
    lines = ["# columns: revision feature value_hours std_error normalized_share"]
    for a in sets:
        total = float(np.abs(a.values).sum())
        for name, value, se in zip(a.feature_names, a.values, a.std_errors):
            share = abs(value) / total if total > 0 else 0.0
            numbers = " ".join(repr(float(x)) for x in (value, se, share))
            lines.append(f"{a.revision_index} {name} {numbers}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
