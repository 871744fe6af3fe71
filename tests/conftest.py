import numpy as np
import pytest

from etrcast.data import FeatureSchema
from etrcast.model import ModelConfig, SequenceBatch, init_params
from etrcast.synth import GeneratorConfig, generate_dataset


@pytest.fixture(scope="session")
def small_dataset():
    """Trainable dataset small enough for unit tests (6 storms/class)."""
    cfg = GeneratorConfig(seed=2, storms_per_class=6, events_per_storm=(6, 10))
    return generate_dataset(cfg)


@pytest.fixture(scope="session")
def micro_schema():
    return FeatureSchema(
        features=(("kind", "categorical"), ("level", "continuous")),
        cardinalities={"kind": 3},
    )


@pytest.fixture
def micro_config():
    return ModelConfig(max_seq_len=5, d_model=8, n_layers=2, n_heads=2)


@pytest.fixture
def micro_params(micro_config, micro_schema):
    return init_params(micro_config, micro_schema, seed=0)


def make_batch(schema, config, n=4, seed=0, lengths=None):
    """Random valid SequenceBatch: contiguous masks, sorted deltas from 0."""
    rng = np.random.default_rng(seed)
    s = config.max_seq_len
    p, q = schema.p, schema.q
    cards = [schema.cardinalities[name] for name in schema.categorical]
    cat = np.stack(
        [rng.integers(0, c, size=(n, s)) for c in cards], axis=2
    ).astype(np.int64)
    cont = rng.normal(size=(n, s, q))
    deltas = np.sort(rng.uniform(0.0, 12.0, size=(n, s)), axis=1)
    deltas = deltas - deltas[:, :1]
    if lengths is None:
        lengths = rng.integers(1, s + 1, size=n)
    lengths = np.asarray(lengths)
    mask = np.arange(s)[None, :] < lengths[:, None]
    return SequenceBatch(cat_idx=cat, cont=cont, deltas=deltas, mask=mask)


def event_batch(cat_idx, cont, deltas):
    """Single-event batch, exactly as long as the event (no padding)."""
    return SequenceBatch(
        cat_idx=cat_idx[None, :, :],
        cont=cont[None, :, :],
        deltas=deltas[None, :],
        mask=np.ones((1, deltas.shape[0]), dtype=bool),
    )
