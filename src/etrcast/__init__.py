"""Restoration-time regression over outage revision sequences.

A sequence model (per-feature embeddings, continuous-time positional
encoding, masked self-attention) trained with an asymmetric piecewise
loss that penalizes under-prediction more than moderate over-prediction.
Includes a synthetic storm generator with a replayable ground truth,
a reverse-mode autodiff tape, training with Adam and plateau decay,
stratified evaluation, attention export, and permutation Shapley
attributions.
"""

__version__ = "0.1.0"
