"""Central finite differences, the oracle that analytic tape gradients are checked against.

Every primitive and the full training objective must pass :func:`fd_check`
(``test_autodiff.py``, ``test_model.py`` and acceptance check 04).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from etrcast.autodiff import NumericsError


def fd_check(
    f: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f`` maps a parameter dict to ``(scalar value, gradient dict)``. A seeded
    subset of at most ``max_coords`` coordinates (all of them when fewer
    exist) is perturbed by ``±h``; the relative error denominator is
    ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if h <= 0:
        raise NumericsError("fd_check: h must be positive")
    value, analytic = f(params)
    if not np.isfinite(value):
        raise NumericsError("fd_check: non-finite objective value")

    flat: list[tuple[str, int]] = []
    for name in sorted(params):
        flat.extend((name, i) for i in range(params[name].size))
    rng = np.random.default_rng(seed)
    if len(flat) > max_coords:
        picks = rng.choice(len(flat), size=max_coords, replace=False)
        coords = [flat[i] for i in sorted(picks)]
    else:
        coords = flat

    worst = 0.0
    work = {name: arr.copy() for name, arr in params.items()}
    for name, i in coords:
        arr = work[name].reshape(-1)
        orig = arr[i]
        arr[i] = orig + h
        f_plus, _ = f(work)
        arr[i] = orig - h
        f_minus, _ = f(work)
        arr[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericsError(f"fd_check: non-finite value perturbing {name}[{i}]")
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = float(analytic[name].reshape(-1)[i]) if name in analytic else 0.0
        denom = max(abs(ana), abs(numeric), 1e-8)
        worst = max(worst, abs(ana - numeric) / denom)
    return worst
