"""The package's public surface: every name in __all__ is listed once and
resolves, so `from graphflow import *` cannot break on a deleted name."""

import graphflow


def test_all_has_no_duplicates():
    assert len(graphflow.__all__) == len(set(graphflow.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in graphflow.__all__ if not hasattr(graphflow, name)]
    assert missing == []
