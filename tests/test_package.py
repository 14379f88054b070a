import types

import spinopt


def test_all_lists_exactly_the_public_names_bound():
    # a removed export must not leave a dangling __all__ entry, and a new
    # one must be listed
    bound = [
        name
        for name, value in vars(spinopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(set(spinopt.__all__)) == len(spinopt.__all__)
    assert sorted(spinopt.__all__) == sorted(bound)

