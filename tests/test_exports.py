import hyperrank


def test_every_exported_name_resolves():
    assert len(set(hyperrank.__all__)) == len(hyperrank.__all__)
    assert [name for name in hyperrank.__all__ if not hasattr(hyperrank, name)] == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from hyperrank import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hyperrank.__all__)
