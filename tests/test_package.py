"""The package namespace: its API is its modules, not names re-exported from them."""
import types

import embfuse
from embfuse import cli


def test_every_public_attribute_is_a_submodule():
    public = {name: value for name, value in vars(embfuse).items() if not name.startswith("_")}
    assert public["cli"] is cli  # importing a module binds it on the package
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"embfuse.{name}"
