"""The package's export list."""

import stacache


def test_star_import_binds_exactly_the_export_list():
    # a name deleted from its module but left in __all__ fails here, not at
    # a user's import
    namespace = {}
    exec("from stacache import *", namespace)
    del namespace["__builtins__"]
    assert len(set(stacache.__all__)) == len(stacache.__all__)
    assert sorted(namespace) == sorted(stacache.__all__)
