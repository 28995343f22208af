"""The names hybridchan exports."""

import hybridchan


def test_every_exported_name_resolves():
    assert len(set(hybridchan.__all__)) == len(hybridchan.__all__)
    for name in hybridchan.__all__:
        assert hasattr(hybridchan, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hybridchan import *", namespace)
    assert set(hybridchan.__all__) <= namespace.keys()
