"""The count rule and the seed rule, at every entry that takes a count or a seed.

Each rule is written once, as ``data._count`` and ``rng._check_seed``.  Every
entry is fed the same bad values and must raise a ``ValueError`` that names
its argument; none may truncate a value or take it without a word.
"""

import json
import re

import numpy as np
import pytest

from distilrec.data import (
    Dataset,
    Source,
    SplitSpec,
    UnobservedSampler,
    generate_synthetic,
    partition_batches,
)
from distilrec.network import NetworkConfig, init_network, load_checkpoint, save_checkpoint
from distilrec.rng import RngStream

from oracles import interaction

CONFIG = dict(n_users=5, n_items=6, embedding_dim=3, hidden_sizes=(4, 2))
SIZES = dict(n_users=8, n_items=8, latent_dim=2, n_biased=8, n_uniform=8)
ROWS = [interaction(0, item, 5, Source.UNIFORM) for item in range(64)]


def synthetic(**over):
    return generate_synthetic(**{**SIZES, "exposure_skew": 1.0, "seed": 0, **over})


# entry: (call with the count, the argument's name, the least count it takes)
COUNT_ENTRIES = {
    "NetworkConfig.n_users": (lambda v: NetworkConfig(**{**CONFIG, "n_users": v}), "n_users", 1),
    "NetworkConfig.n_items": (lambda v: NetworkConfig(**{**CONFIG, "n_items": v}), "n_items", 1),
    "NetworkConfig.embedding_dim": (lambda v: NetworkConfig(**{**CONFIG, "embedding_dim": v}),
                                    "embedding_dim", 1),
    "NetworkConfig.hidden_sizes": (lambda v: NetworkConfig(**{**CONFIG, "hidden_sizes": (4, v)}),
                                   "hidden_sizes[1]", 1),
    "partition_batches.m": (lambda v: partition_batches(ROWS, v, RngStream(0)), "m", 1),
    **{f"generate_synthetic.{name}": ((lambda v, name=name: synthetic(**{name: v})), name, 1)
       for name in SIZES},
    "Dataset.n_users": (lambda v: Dataset(ROWS[:1], v, 64), "n_users", 0),
    "Dataset.n_items": (lambda v: Dataset(ROWS[:1], 64, v), "n_items", 0),
    "UnobservedSampler.n_users": (lambda v: UnobservedSampler(v, 64, [[0, 0]], RngStream(1)),
                                  "n_users", 0),
    "UnobservedSampler.n_items": (lambda v: UnobservedSampler(64, v, [[0, 0]], RngStream(1)),
                                  "n_items", 0),
    "UnobservedSampler.sample": (lambda v: UnobservedSampler(2, 3, [], RngStream(1)).sample(v),
                                 "n", 0),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("value", [2.5, True, "5", "below"])
def test_count_that_is_not_a_whole_number_at_least_its_floor_rejected(entry, value):
    # Unchecked, m=2.5 gave 2 batches and m=True 1, Dataset and UnobservedSampler took
    # a 2.5-row grid, and generate_synthetic(5.5, ...) failed in numpy naming no argument.
    call, name, low = COUNT_ENTRIES[entry]
    value = low - 1 if value == "below" else value
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be ")):
        call(value)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_whole_float_count_accepted(entry):
    call, _, _ = COUNT_ENTRIES[entry]
    call(64.0)


def checkpoint_with_seed(path, seed):
    """A valid checkpoint at ``path`` whose header holds ``seed``; a numpy integer is written
    as the JSON integer it equals."""
    save_checkpoint(init_network(NetworkConfig(**CONFIG), RngStream(1)), path, seed=3)
    arrays = dict(np.load(path))
    header = json.loads(bytes(arrays["header"]).decode())
    header["seed"] = seed
    arrays["header"] = np.frombuffer(json.dumps(header, default=int).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    return path


def seed_entries(tmp_path):
    net = init_network(NetworkConfig(**CONFIG), RngStream(1))
    return {
        "RngStream": lambda s: RngStream(s).seed,
        "SplitSpec": lambda s: SplitSpec(seed=s).seed,
        "generate_synthetic": lambda s: synthetic(seed=s)[1].interactions,
        "save_checkpoint": lambda s: (save_checkpoint(net, tmp_path / "s.npz", seed=s),
                                      load_checkpoint(tmp_path / "s.npz")[1])[1],
        "load_checkpoint": lambda s: load_checkpoint(
            checkpoint_with_seed(tmp_path / "l.npz", s))[1],
    }


SEED_ENTRIES = ["RngStream", "SplitSpec", "generate_synthetic", "save_checkpoint",
                "load_checkpoint"]


@pytest.mark.parametrize("entry", SEED_ENTRIES)
@pytest.mark.parametrize("seed", [1.5, True, "5", -1, 2**64])
def test_seed_that_is_not_an_integer_in_range_rejected(tmp_path, entry, seed):
    # Unchecked, RngStream(1.5) drew what RngStream(1) draws, "5" was seed 5, and a
    # checkpoint saved and loaded seed -1 or 2**64, which no stream accepts.
    message = f"seed must be an integer in [0, 2**64), got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        seed_entries(tmp_path)[entry](seed)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_numpy_integer_seed_is_the_same_seed(tmp_path, entry):
    call = seed_entries(tmp_path)[entry]
    by_numpy, by_int = call(np.int64(3)), call(3)
    assert by_numpy == by_int
    assert type(by_numpy) is type(by_int)


def test_largest_seed_accepted():
    assert RngStream(2**64 - 1).seed == 2**64 - 1
