"""The package's public names: everything in __all__ resolves, and a value
that is not a number raises the package's own errors, never a bare ValueError."""

import pytest

import tanglebound
from tanglebound import errors, invariants, qstate, quartic


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its object is gone makes the star import
    # raise AttributeError
    namespace = {}
    exec("from tanglebound import *", namespace)
    assert set(tanglebound.__all__) <= namespace.keys()


@pytest.mark.parametrize("call,error", [
    (lambda: quartic.roots(["x"] * 5), errors.BadArity),
    (lambda: qstate.PureState4(["a"] * 16), errors.BadStateFormat),
    (lambda: qstate.MixedState3("abc"), errors.BadStateFormat),
    (lambda: qstate.u_of_x("abc"), errors.NonFinite),
    (lambda: invariants.transform_endpoints(
        invariants.invariant_set(qstate.random_state(1), "A4"), "abc"), errors.NonFinite),
    (lambda: tanglebound.ClassSpec("V", a="abc"), errors.NonFinite),
], ids=["roots", "PureState4", "MixedState3", "u_of_x", "transform_endpoints", "ClassSpec"])
def test_a_value_that_is_not_a_number_raises_a_package_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, errors.TangleboundError) and isinstance(info.value, ValueError)
