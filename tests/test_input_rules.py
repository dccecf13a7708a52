"""The count, seed, real-number, choice, stream, column, row and log rules, at every entry
that takes such a value.

Each rule is written once, in ``distilrec._rules``: ``_count``, ``_check_seed``, ``_real``,
``_member`` (for enum choices, random streams and every other typed argument) and
``_check_columns``; the row rule is ``Rows``'s own, and the log rule ``_as_rows``'s.  Each
is checked here, one table per rule, and not again per module.
Every entry is fed the same bad values and must raise a ``ValueError`` that names its
argument; none may truncate or coerce a value or take it without a word.
"""

import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from distilrec.data import (
    Dataset,
    Rows,
    Source,
    SplitSpec,
    UnobservedSampler,
    generate_synthetic,
    pack,
    partition_batches,
    split_uniform,
)
from distilrec.losses import ObservedBatch, RegLossKind, UnobservedBatch, loss_and_grads
from distilrec.metrics import auc, bce_eval, evaluate
from distilrec.network import (
    ForwardMode,
    Network,
    NetworkConfig,
    backprop,
    forward_batch,
    forward_cached,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from distilrec.optim import OptimizerState, apply_update, make_optimizer
from distilrec.rng import RngStream

from oracles import interaction, sparse_gradient

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
    "UnobservedSampler.sample": (lambda v: UnobservedSampler(Dataset([], 2, 3),
                                                             RngStream(1)).sample(v), "n", 0),
    # Unchecked, step=-1 made the first Adam update divide by 1 - 0.9**0 = 0, and
    # step=1.5 was taken and advanced to 2.5.
    "OptimizerState.step": (lambda v: OptimizerState(0.1, step=v), "step", 0),
    # Unchecked, choice(True, 1) drew from {0} and choice(5, 2.5) raised numpy's TypeError.
    "RngStream.choice.n": (lambda v: RngStream(1).choice(v, 1), "n", 1),
    "RngStream.choice.size": (lambda v: RngStream(1).choice(5, v), "size", 0),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("value", [2.5, True, "5", np.nan, np.inf, "below"])
def test_count_that_is_not_a_whole_number_at_least_its_floor_rejected(entry, value):
    # Unchecked, m=2.5 gave 2 batches and m=True 1, Dataset took a 2.5-row grid, and
    # generate_synthetic(5.5, ...) failed in numpy naming no argument.
    call, name, low = COUNT_ENTRIES[entry]
    if value == "below":
        value, message = low - 1, f"{name} must be >= {low}, got {low - 1!r}"
    else:
        message = f"{name} must be a whole number, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(value)


def test_choice_without_replacement_of_more_than_n_rejected_naming_size():
    # Unchecked, numpy raised "Cannot take a larger sample than population when replace
    # is False", naming no argument.
    with pytest.raises(ValueError, match=r"^size must be <= n = 3 without replacement, got 5$"):
        RngStream(1).choice(3, 5, replace=False)
    assert sorted(RngStream(1).choice(3, 3, replace=False).tolist()) == [0, 1, 2]


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_whole_float_count_accepted(entry):
    call, _, _ = COUNT_ENTRIES[entry]
    call(64.0)


SEED_ENTRIES = {
    "RngStream": lambda s: RngStream(s).seed,
    "SplitSpec": lambda s: SplitSpec(seed=s).seed,
    "generate_synthetic": lambda s: synthetic(seed=s)[1].interactions,
}


@pytest.mark.parametrize("entry", SEED_ENTRIES)
@pytest.mark.parametrize("seed", [1.5, True, "5", -1, 2**64])
def test_seed_that_is_not_an_integer_in_range_rejected(entry, seed):
    # Unchecked, RngStream(1.5) drew what RngStream(1) draws, and "5" was seed 5.
    message = f"seed must be an integer in [0, 2**64), got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        SEED_ENTRIES[entry](seed)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_numpy_integer_seed_is_the_same_seed(entry):
    call = SEED_ENTRIES[entry]
    by_numpy, by_int = call(np.int64(3)), call(3)
    assert by_numpy == by_int
    assert type(by_numpy) is type(by_int)


def test_largest_seed_accepted():
    assert RngStream(2**64 - 1).seed == 2**64 - 1


NET = init_network(NetworkConfig(**CONFIG), RngStream(1))
DROPOUT_NET = init_network(NetworkConfig(**CONFIG, dropout_rate=0.5), RngStream(1))
OBSERVED = ObservedBatch(np.array([0, 1]), np.array([0, 2]), np.array([1.0, 0.0]))
UNOBSERVED = UnobservedBatch(np.array([2, 3]), np.array([1, 4]), np.array([0.25, 0.75]))


def objective(**over):
    return loss_and_grads(NET, OBSERVED, UNOBSERVED, **{"gamma_reg": 0.5, **over})[0]


# entry: (call with the real, the argument's name, its interval, values outside it, a
# value inside it); each call returns what the value is stored as, or what it produced.
REAL_ENTRIES = {
    "SplitSpec.uniform_train_fraction": (
        lambda v: SplitSpec(uniform_train_fraction=v).uniform_train_fraction,
        "uniform_train_fraction", "(0, 1)", [1.0, 0.0, -0.2, 1.5], 0.3),
    "generate_synthetic.exposure_skew": (lambda v: synthetic(exposure_skew=v)[1].interactions,
                                         "exposure_skew", "(-inf, inf)", [-np.inf], 1.5),
    "generate_synthetic.bias": (lambda v: synthetic(bias=v)[1].interactions,
                                "bias", "(-inf, inf)", [-np.inf], -2.5),
    "NetworkConfig.dropout_rate": (
        lambda v: NetworkConfig(**{**CONFIG, "dropout_rate": v}).dropout_rate,
        "dropout_rate", "[0, 1)", [1.0], 0.1),
    "loss_and_grads.gamma_reg": (lambda v: objective(gamma_reg=v), "gamma_reg", "[0, inf)",
                                 [-0.5], 0.7),
    "loss_and_grads.l2_coeff": (lambda v: objective(l2_coeff=v), "l2_coeff", "[0, inf)",
                                [-0.5], 0.3),
    "OptimizerState.learning_rate": (lambda v: make_optimizer(NET, "adam", v).learning_rate,
                                     "learning_rate", "(0, inf)", [0.0, -np.inf], 1e-3),
}
STORED = ["SplitSpec.uniform_train_fraction", "NetworkConfig.dropout_rate",
          "OptimizerState.learning_rate"]


@pytest.mark.parametrize("entry", REAL_ENTRIES)
@pytest.mark.parametrize("value", [True, "0.5", np.nan, np.inf,
                                   pytest.param(10**400, id="10**400"), "outside"])
def test_real_that_is_not_finite_in_its_interval_rejected(entry, value):
    # Unchecked, True was taken as 1 by the learning rate, gamma_reg and exposure_skew,
    # and a string failed in a comparison or in numpy with a TypeError naming no argument.
    # An int beyond the float range passed an interval open to the right and failed in
    # float() with a bare OverflowError: make_optimizer(net, "adam", 10**400) did.
    call, name, interval, outside, _ = REAL_ENTRIES[entry]
    for value in outside if value == "outside" else [value]:
        message = f"{name} must be a finite real in {interval}, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(value)


@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_float32_is_the_float_it_equals(entry):
    # An np.float32 dropout rate was stored as is: its config hashed unlike the equal
    # config built from a float, and save_checkpoint failed in JSON.
    call, _, _, _, inside = REAL_ENTRIES[entry]
    by_numpy, by_float = call(np.float32(inside)), call(float(np.float32(inside)))
    assert by_numpy == by_float
    if entry in STORED:
        assert type(by_numpy) is float


def test_float32_dropout_rate_round_trips_through_checkpoint(tmp_path):
    net = init_network(NetworkConfig(**CONFIG, dropout_rate=np.float32(0.1)), RngStream(1))
    save_checkpoint(net, tmp_path / "net.npz")
    loaded = load_checkpoint(tmp_path / "net.npz")
    assert loaded.config == net.config
    assert hash(loaded.config) == hash(net.config)


def update(**over):
    """One Adam update of a fresh network by a zero gradient, ``over`` replacing arguments."""
    net = init_network(NetworkConfig(**CONFIG), RngStream(1))
    apply_update(**{"opt": make_optimizer(net), "net": net,
                    "grads": sparse_gradient(net.zeros_like()), **over})


def saved(net):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(net, Path(tmp) / "net.npz")


# A 2-row tape; backprop's entry puts the users it is fed in place of the tape's.
CACHE = forward_cached(NET, [0, 1], [0, 1], ForwardMode.DETERMINISTIC)
TESTSET = [interaction(0, 0, 5, Source.UNIFORM), interaction(0, 1, 1, Source.UNIFORM)]

# entry: call with the network, each at an entry that takes one.
NET_ENTRIES = {
    "forward_batch": lambda v: forward_batch(v, [[0, 0]]),
    "forward_cached": lambda v: forward_cached(v, [0], [0], ForwardMode.DETERMINISTIC),
    "loss_and_grads": lambda v: loss_and_grads(v, OBSERVED),
    "backprop": lambda v: backprop(v, CACHE, np.zeros(2)),
    "apply_update": lambda v: update(net=v),
    "make_optimizer": lambda v: make_optimizer(v, "sgd"),
    "save_checkpoint": saved,
    "evaluate": lambda v: evaluate(v, TESTSET),
}


# entry: (call with the value, the argument's name, the class or classes it takes, values
# that are not one, a value that is)
CHOICE_ENTRIES = {
    "forward_batch.mode": (lambda v: forward_batch(DROPOUT_NET, [[0, 0]], v, RngStream(1)),
                           "mode", "ForwardMode", ["deterministic"], ForwardMode.DETERMINISTIC),
    "forward_cached.mode": (lambda v: forward_cached(DROPOUT_NET, [0], [0], v, RngStream(1)),
                            "mode", "ForwardMode", ["deterministic"], ForwardMode.DETERMINISTIC),
    "loss_and_grads.mode": (lambda v: loss_and_grads(DROPOUT_NET, OBSERVED, mode=v,
                                                     rng=RngStream(1)),
                            "mode", "ForwardMode", ["deterministic"], ForwardMode.DETERMINISTIC),
    "loss_and_grads.reg_kind": (lambda v: objective(reg_kind=v), "reg_kind", "RegLossKind",
                                ["kl"], RegLossKind.KL),
    # Unchecked, by_source("uniform") and by_source(None) returned [].
    "Dataset.by_source": (lambda v: synthetic()[1].by_source(v), "source", "Source",
                          ["uniform"], Source.UNIFORM),
    # Unchecked, 64 raised "TypeError: 'int' object is not iterable", and "64" failed on
    # its first character as hidden_sizes[0]. A list is what a checkpoint's JSON config holds.
    "NetworkConfig.hidden_sizes": (lambda v: NetworkConfig(**{**CONFIG, "hidden_sizes": v}),
                                   "hidden_sizes", "tuple or list", [64, "64"], [4, 2]),
    # Unchecked, each of these raised an AttributeError.
    "split_uniform.spec": (lambda v: split_uniform(ROWS, v), "spec", "SplitSpec", [0.2],
                           SplitSpec(0.2, 1)),
    "loss_and_grads.observed": (lambda v: loss_and_grads(NET, v), "observed", "ObservedBatch",
                                [tuple(vars(OBSERVED).values())], OBSERVED),
    "loss_and_grads.unobserved": (lambda v: loss_and_grads(NET, OBSERVED, v, gamma_reg=0.5),
                                  "unobserved", "UnobservedBatch",
                                  [tuple(vars(UNOBSERVED).values())], UNOBSERVED),
    "apply_update.grads": (lambda v: update(grads=v), "grads", "Gradient", [None, NET],
                           sparse_gradient(NET.zeros_like())),
    "init_network.config": (lambda v: init_network(v, RngStream(1)), "config", "NetworkConfig",
                            [CONFIG], NetworkConfig(**CONFIG)),
    **{f"{entry}.net": (call, "net", "Network", [None, NET.config], NET)
       for entry, call in NET_ENTRIES.items()},
    "backprop.cache": (lambda v: backprop(NET, v, np.zeros(2)), "cache", "ForwardCache",
                       [None], CACHE),
    "apply_update.opt": (lambda v: update(opt=v), "opt", "OptimizerState", [None, 0.1],
                         OptimizerState(0.1)),
    "OptimizerState.moments": (lambda v: update(opt=OptimizerState(0.1, moments=v)),
                               "moments", "tuple", ["adam", [NET.zeros_like()] * 2],
                               (NET.zeros_like(), NET.zeros_like())),
    "OptimizerState.moments[1]": (
        lambda v: update(opt=OptimizerState(0.1, moments=(NET.zeros_like(), v))),
        "moments[1]", "Network", [None], NET.zeros_like()),
    "UnobservedSampler.dataset": (lambda v: UnobservedSampler(v, RngStream(1)), "dataset",
                                  "Dataset", [ROWS], synthetic()[1]),
    "UnobservedSampler.from_dataset": (lambda v: UnobservedSampler.from_dataset(v, RngStream(1)),
                                       "dataset", "Dataset", [ROWS], synthetic()[1]),
    # Unchecked, a config of None raised "AttributeError: 'NoneType' object has no attribute
    # 'layer_widths'", and weights or biases of None "TypeError: object of type 'NoneType'
    # has no len()".
    "Network.config": (lambda v: Network(v, NET.user_emb, NET.item_emb, NET.weights, NET.biases),
                       "config", "NetworkConfig", [None, CONFIG], NET.config),
    "Network.weights": (lambda v: Network(NET.config, NET.user_emb, NET.item_emb, v, NET.biases),
                        "weights", "list or tuple", [None, NET.weights[0]], tuple(NET.weights)),
    "Network.biases": (lambda v: Network(NET.config, NET.user_emb, NET.item_emb, NET.weights, v),
                       "biases", "list or tuple", [None, NET.biases[0]], tuple(NET.biases)),
    # Unchecked, a list raised "AttributeError: 'list' object has no attribute 'shape'".
    "Network.user_emb": (lambda v: Network(NET.config, v, NET.item_emb, NET.weights, NET.biases),
                         "user_emb", "ndarray", [NET.user_emb.tolist()], NET.user_emb),
    "Network.weights[1]": (lambda v: Network(NET.config, NET.user_emb, NET.item_emb,
                                             [NET.weights[0], v, NET.weights[2]], NET.biases),
                           "weights[1]", "ndarray", [NET.weights[1].tolist()], NET.weights[1]),
    # Unchecked, replace="no" drew with replacement and replace=None without it. numpy 2
    # names its np.bool_ "bool", and the message names it once.
    "RngStream.choice.replace": (lambda v: RngStream(1).choice(3, 2, replace=v), "replace",
                                 "bool", ["no", None], np.False_),
    # Unchecked, each of these raised "AttributeError: ... object has no attribute 'encode'".
    "RngStream.split.label": (lambda v: RngStream(1).split(v), "label", "str",
                              [5, None, b"labels"], "labels"),
}


@pytest.mark.parametrize("entry", CHOICE_ENTRIES)
def test_choice_that_is_not_a_member_rejected(entry):
    # Unchecked, mode="deterministic" drew dropout masks, and any reg_kind string, "mse"
    # too, gave KL.
    call, name, kinds, wrong, right = CHOICE_ENTRIES[entry]
    for value in wrong:
        message = f"{name} must be a {kinds}, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(value)
    call(right)


def test_by_source_of_none_rejected():
    with pytest.raises(ValueError, match="^source must be a Source, got None$"):
        synthetic()[1].by_source(None)


# Three uniform rows on a 3 x 3 grid, with both labels, that every log entry takes.
LOG = [interaction(0, 0, 5, Source.UNIFORM), interaction(0, 1, 1, Source.UNIFORM),
       interaction(1, 2, 5, Source.UNIFORM)]
# entry: (call with the log, the argument's name)
LOG_ENTRIES = {
    "Dataset": (lambda v: Dataset(v, 3, 3), "interactions"),
    "pack": (pack, "interactions"),
    "split_uniform": (lambda v: split_uniform(v, SplitSpec(0.34)), "uniform_data"),
    "partition_batches": (lambda v: partition_batches(v, 1, RngStream(1)), "data"),
    "Rows + log": (lambda v: Dataset(LOG, 3, 3).interactions + v, "other"),
    "evaluate": (lambda v: evaluate(NET, v), "testset"),
}
# value: (the value, the message, ``{name}`` standing for the argument's name)
NOT_LOGS = {
    "None": (None, "{name} must be a Rows or list or tuple, got None"),
    "row of four values": ([LOG[0], (0, 0, 5, 1)], "row 1: (0, 0, 5, 1) is not an Interaction"),
    "int row": ([LOG[0], 5], "row 1: 5 is not an Interaction"),
}


@pytest.mark.parametrize("entry", LOG_ENTRIES)
@pytest.mark.parametrize("value", NOT_LOGS)
def test_log_that_is_not_rows_or_a_sequence_of_interactions_rejected(entry, value):
    # Unchecked, None failed in zip() with "TypeError: zip() argument after * must be an
    # iterable, not NoneType" (evaluate in len()), a row of four values with "IndexError:
    # list index out of range" and an int row with "TypeError: 'int' object is not iterable".
    call, name = LOG_ENTRIES[entry]
    bad, message = NOT_LOGS[value]
    with pytest.raises(ValueError, match="^" + re.escape(message.format(name=name)) + "$"):
        call(bad)
    call(LOG)
    call(tuple(LOG))


# entry: (call with its parallel columns, their names); the first is the length's reference.
COLUMN_ENTRIES = {
    "ObservedBatch": (ObservedBatch, ("users", "items", "labels")),
    "UnobservedBatch": (UnobservedBatch, ("users", "items", "teacher_targets")),
    "forward_cached": (lambda users, items: forward_cached(NET, users, items,
                                                           ForwardMode.DETERMINISTIC),
                       ("users", "items")),
    "auc": (auc, ("scores", "labels")),
    "bce_eval": (bce_eval, ("scores", "labels")),
    "backprop": (lambda users, dlogits: backprop(NET, dataclasses.replace(CACHE, users=users),
                                                 dlogits),
                 ("users", "dlogits")),
}


@pytest.mark.parametrize("entry, column", [(entry, column) for entry, (_, names)
                                           in COLUMN_ENTRIES.items() for column in names])
@pytest.mark.parametrize("shape", [(2, 1), (), (1, 2)], ids=str)
def test_column_that_is_not_1d_rejected_naming_it(entry, column, shape):
    # Unchecked, (2, 1) ids failed inside np.concatenate and 0-d ids with an AxisError or
    # "len() of unsized object"; forward_cached scored (2, 1) ids and backprop then failed.
    # auc and bce_eval had a shape rule of their own, and backprop failed inside matmul.
    call, names = COLUMN_ENTRIES[entry]
    columns = {name: np.arange(2) for name in names}   # both labels, so auc is defined
    call(**columns)
    columns[column] = np.zeros(shape, dtype=np.int64)
    message = f"{entry}: {column} has shape {shape}, not 1-D"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(**columns)


@pytest.mark.parametrize("entry, column", [(entry, column) for entry, (_, names)
                                           in COLUMN_ENTRIES.items() for column in names[1:]])
def test_column_of_another_length_rejected_naming_it(entry, column):
    call, names = COLUMN_ENTRIES[entry]
    columns = {name: np.arange(2) for name in names}
    columns[column] = np.zeros(3, dtype=np.int64)
    message = f"{entry}: 3 {column} for 2 {names[0]}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(**columns)


def test_backprop_of_too_few_dlogits_rejected():
    # Unchecked, this failed inside the first matmul, naming no argument.
    cache = forward_cached(NET, [0, 1, 2], [0, 1, 2], ForwardMode.DETERMINISTIC)
    with pytest.raises(ValueError, match="^backprop: 2 dlogits for 3 users$"):
        backprop(NET, cache, [1.0, 2.0])


# Two good rows; each fault replaces one column.
GOOD_COLUMNS = dict(users=[0, 1], items=[1, 0], ratings=[5, 2], is_uniform=np.array([True, False]))
# fault: (the columns it replaces, the message)
ROW_FAULTS = {
    "non-whole id": (dict(users=[0, 0.5]), "row 1: user 0.5 is not an integer within int64"),
    "user id 2**31": (dict(users=[0, 2**31]), "row 1: user id 2147483648 outside int32"),
    "item id -2**31-1": (dict(items=[-2**31 - 1, 0]), "row 0: item id -2147483649 outside int32"),
    "rating 0": (dict(ratings=[5, 0]), "row 1: rating 0 outside 1-5"),
    "rating 6": (dict(ratings=[6, 2]), "row 0: rating 6 outside 1-5"),
    "int is_uniform": (dict(is_uniform=np.array([1, 0])),
                       "Rows: is_uniform has dtype int64, not bool"),
    "unequal lengths": (dict(items=[1, 0, 1]), "Rows: 3 items for 2 users"),
    "2-D column": (dict(ratings=[[5], [2]]), "Rows: ratings has shape (2, 1), not 1-D"),
}
# entry: call with the columns, each making ``Rows`` of them.
ROW_ENTRIES = {
    "Rows": lambda columns: Rows(**columns),
    "Dataset": lambda columns: Dataset(Rows(**columns), 2, 2),
    "Rows + Rows": lambda columns: Rows(**GOOD_COLUMNS) + Rows(**columns),
}


@pytest.mark.parametrize("entry", ROW_ENTRIES)
@pytest.mark.parametrize("fault", ROW_FAULTS)
def test_row_rule_holds_wherever_columns_become_rows(entry, fault):
    # Unchecked, Dataset and + took Rows as given: a user of 0.5, a rating of 0 or 6 and an
    # int is_uniform were held, and columns of unequal length failed in numpy's broadcast.
    replaced, message = ROW_FAULTS[fault]
    ROW_ENTRIES[entry](GOOD_COLUMNS)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ROW_ENTRIES[entry]({**GOOD_COLUMNS, **replaced})


# entry: call with the stream; each draws from it, or keeps it to draw from later.
STREAM_ENTRIES = {
    "partition_batches": lambda r: partition_batches(ROWS, 2, r),
    "UnobservedSampler": lambda r: UnobservedSampler(Dataset(ROWS[:1], 3, 64), r).sample(2),
    "UnobservedSampler.from_dataset": lambda r: UnobservedSampler.from_dataset(
        synthetic()[1], r).sample(2),
    "init_network": lambda r: init_network(NetworkConfig(**CONFIG), r),
    "forward_cached": lambda r: forward_cached(DROPOUT_NET, [0], [0], ForwardMode.TRAIN_DROPOUT,
                                               r),
    "forward_batch": lambda r: forward_batch(DROPOUT_NET, [[0, 0]],
                                             ForwardMode.STOCHASTIC_INFERENCE, r),
    "loss_and_grads": lambda r: loss_and_grads(DROPOUT_NET, OBSERVED,
                                               mode=ForwardMode.TRAIN_DROPOUT, rng=r),
}
NOT_STREAMS = [7, "rng", np.random.default_rng(0), None]


@pytest.mark.parametrize("entry", STREAM_ENTRIES)
@pytest.mark.parametrize("value", NOT_STREAMS, ids=["int", "str", "Generator", "None"])
def test_rng_that_is_not_a_stream_rejected(entry, value):
    # Unchecked, partition_batches(rows, 2, 7) raised an AttributeError, the sampler took a
    # numpy Generator and failed only at .sample, and the forwards and loss_and_grads drew
    # masks from a Generator, outside the RngStream.random that perfbench times.
    message = f"rng must be a RngStream, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        STREAM_ENTRIES[entry](value)
    STREAM_ENTRIES[entry](RngStream(1))


@pytest.mark.parametrize("call", [
    lambda r: forward_cached(NET, [0], [0], ForwardMode.DETERMINISTIC, r),
    lambda r: forward_batch(DROPOUT_NET, [[0, 0]], ForwardMode.DETERMINISTIC, r),
    lambda r: loss_and_grads(NET, OBSERVED, mode=ForwardMode.TRAIN_DROPOUT, rng=r),
], ids=["forward_cached", "forward_batch", "loss_and_grads"])
@pytest.mark.parametrize("value", NOT_STREAMS[:3], ids=["int", "str", "Generator"])
def test_rng_given_where_no_mask_is_drawn_still_checked(call, value):
    # No mask is drawn without dropout or in DETERMINISTIC mode, but a stream that is given
    # goes through the same rule; None is then accepted.
    with pytest.raises(ValueError, match="^rng must be a RngStream, got "):
        call(value)
    call(None)
