"""The package's public surface."""

import inspect

import cmtype


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    bound = {name for name, value in vars(cmtype).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert cmtype.__all__ == sorted(set(cmtype.__all__))
    assert set(cmtype.__all__) == bound
