"""The package's public names."""

import allz


def test_all_is_sorted_unique_and_every_name_resolves():
    names = allz.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(allz, name)] == []
    star = {}
    exec("from allz import *", star)
    assert set(names) <= star.keys()
