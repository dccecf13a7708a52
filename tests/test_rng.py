import numpy as np

from distilrec.rng import RngStream


def test_same_seed_same_sequence():
    a = RngStream(7).random(1000)
    b = RngStream(7).random(1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).random(16), RngStream(2).random(16))


def test_labeled_split_is_deterministic():
    a = RngStream(7).split("teacher").random(100)
    b = RngStream(7).split("teacher").random(100)
    np.testing.assert_array_equal(a, b)


def test_sibling_splits_are_independent_streams():
    root = RngStream(7)
    t = root.split("teacher").random(100)
    s = root.split("student").random(100)
    assert not np.array_equal(t, s)
    # Splitting is order-free: consuming one stream does not shift another.
    root2 = RngStream(7)
    s_first = root2.split("student").random(100)
    np.testing.assert_array_equal(s, s_first)


def test_nested_splits():
    a = RngStream(7).split("round-1").split("init").random(8)
    b = RngStream(7).split("round-1").split("init").random(8)
    c = RngStream(7).split("round-2").split("init").random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_repr_names_seed_and_path():
    assert repr(RngStream(5)) == "RngStream(seed=5, path=())"
