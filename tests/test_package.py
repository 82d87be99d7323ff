import renewalpde


def test_every_exported_name_imports():
    assert [name for name in renewalpde.__all__ if not hasattr(renewalpde, name)] == []
