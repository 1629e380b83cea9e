import types

import cantor_hankel


def test_all_names_exactly_the_public_attributes():
    # Submodules are attributes once imported, but not exports; the
    # version is the one dunder exported.
    names = cantor_hankel.__all__
    assert len(names) == len(set(names))
    public = {name for name in dir(cantor_hankel) if not name.startswith("_")
              and not isinstance(getattr(cantor_hankel, name), types.ModuleType)}
    assert set(names) == public | {"__version__"}
    namespace = {}
    exec("from cantor_hankel import *", namespace)
    for name in names:
        assert namespace[name] is getattr(cantor_hankel, name), name
