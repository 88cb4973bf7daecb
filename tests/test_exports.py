"""The package's public names: every entry of ``graphfix.__all__`` must
resolve, so an API deleted from its module cannot stay exported."""

import graphfix


def test_every_exported_name_resolves():
    missing = [name for name in graphfix.__all__ if not hasattr(graphfix, name)]
    assert missing == []
    assert len(set(graphfix.__all__)) == len(graphfix.__all__)


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from graphfix import *", namespace)
    assert set(graphfix.__all__) <= set(namespace)
