import etrcast


def test_every_export_resolves():
    # an export left behind by a deletion otherwise fails only under `import *`
    missing = [name for name in etrcast.__all__ if not hasattr(etrcast, name)]
    assert missing == []
