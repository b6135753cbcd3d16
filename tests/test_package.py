import pidtune


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from pidtune import *", namespace)
    missing = [name for name in pidtune.__all__ if name not in namespace]
    assert missing == []
