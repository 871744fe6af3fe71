"""All-rows permutation Shapley, a test oracle for ``etrcast.explain.shapley_attributions``.

This is the loop that deduplicated coalition rows replaced: every chunk
predicts all d+1 coalition states of its permutations, repeats included, and
the sample's own prediction comes from a separate size-1 call. The two must
agree to rounding: a row's bits may depend on its position in a BLAS call.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import replace

import numpy as np

from etrcast.explain import AttributionSet, PredictFn
from etrcast.model import SequenceBatch, TokenFront, TokenSlots
from etrcast.training import CHUNK_SLOTS


def shapley_attributions(
    predict_fn: PredictFn,
    sample: SequenceBatch,
    background_cat: np.ndarray,
    background_cont: np.ndarray,
    n_permutations: int,
    seed: int = 0,
    feature_names=None,
) -> AttributionSet:
    """Same draws, same sums, same result fields as the library's; no input checks."""
    p, q = sample.cat_idx.shape[2], sample.cont.shape[2]
    d = p + q
    names = tuple(feature_names) if feature_names is not None else tuple(
        [f"cat_{i}" for i in range(p)] + [f"cont_{i}" for i in range(q)]
    )
    last = int(sample.lengths[0]) - 1
    sample_cat, sample_cont = sample.cat_idx[0, last], sample.cont[0, last]
    k = background_cat.shape[0]
    per_call = max(1, CHUNK_SLOTS // ((d + 1) * (last + 1)))
    sums, sumsq, bg_pred_sum = np.zeros(d), np.zeros(d), 0.0

    own = TokenFront(*(a[0, : last + 1] for a in (sample.cat_idx, sample.cont, sample.deltas)))
    with closing(own):
        ids = np.minimum(np.arange(sample.mask.shape[1]), last)[None]
        prediction = float(predict_fn(replace(sample, tokens=TokenSlots(own, ids)))[0])
        for start in range(0, n_permutations, per_call):
            draws, perms = [], []
            for t in range(start, min(start + per_call, n_permutations)):
                rng = np.random.default_rng((seed, t))
                draws.append(int(rng.integers(0, k)))
                perms.append(rng.permutation(d))
            perms = np.asarray(perms)
            n = perms.shape[0] * (d + 1)
            rank = np.argsort(perms, axis=1)
            on = rank[:, None, :] < np.arange(d + 1)[None, :, None]
            chunk = own.extend(
                np.where(on[..., :p], sample_cat, background_cat[draws][:, None]).reshape(n, p),
                np.where(on[..., p:], sample_cont, background_cont[draws][:, None]).reshape(n, q),
                np.full(n, own.rows[2][last]),
            )
            ids = np.hstack([np.tile(np.arange(last), (n, 1)), last + 1 + np.arange(n)[:, None]])
            slots = (*(a[ids] for a in chunk.rows), np.ones(ids.shape, bool))
            preds = predict_fn(SequenceBatch(*slots, TokenSlots(chunk, ids))).reshape(-1, d + 1)
            diffs = np.diff(preds, axis=1)
            np.add.at(sums, perms.ravel(), diffs.ravel())
            np.add.at(sumsq, perms.ravel(), (diffs * diffs).ravel())
            for value in preds[:, 0]:
                bg_pred_sum += value

    values = sums / n_permutations
    var = np.maximum(sumsq / n_permutations - values * values, 0.0)
    std_errors = np.sqrt(var / n_permutations)
    background_mean = bg_pred_sum / n_permutations
    return AttributionSet(
        names, values, std_errors, n_permutations, prediction, background_mean, last + 1
    )
