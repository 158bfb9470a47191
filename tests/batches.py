"""Hand-built training batches for the network, optimizer and acceptance tests."""

from __future__ import annotations

import numpy as np

from vtapred.network import Batch, NetworkConfig


def make_batch(features, decade_index, y_vta, y_nyhac=None, y_bmi=None) -> Batch:
    """Stack per-row values into a Batch; a None auxiliary target is missing.

    ``y_nyhac`` and ``y_bmi`` default to missing on every row.
    """
    n = len(y_vta)
    y_nyhac = [None] * n if y_nyhac is None else y_nyhac
    y_bmi = [None] * n if y_bmi is None else y_bmi
    return Batch(
        features=np.array(features, dtype=float),
        decade_index=np.array(decade_index, dtype=int),
        y_vta=np.array(y_vta, dtype=int),
        y_nyhac=np.array([-1 if v is None else v for v in y_nyhac], dtype=int),
        y_bmi=np.array([0.0 if v is None else v for v in y_bmi], dtype=float),
        bmi_mask=np.array([v is not None for v in y_bmi], dtype=bool),
    )


def random_batch(rng, config: NetworkConfig, n: int, with_aux: bool = True) -> Batch:
    """n random rows, drawn row by row; each auxiliary target is present with probability 0.7."""
    rows = [
        (
            rng.random(config.num_features),
            int(rng.integers(0, config.embedding_rows)),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 4)) if with_aux and rng.random() < 0.7 else None,
            float(rng.random()) if with_aux and rng.random() < 0.7 else None,
        )
        for _ in range(n)
    ]
    return make_batch(*zip(*rows))

