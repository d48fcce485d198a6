"""The package's public names: everything in __all__ resolves."""

import tanglebound


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its object is gone makes the star import
    # raise AttributeError
    namespace = {}
    exec("from tanglebound import *", namespace)
    assert set(tanglebound.__all__) <= namespace.keys()
