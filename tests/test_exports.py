"""The package's public names; a deleted export must not leave a dangling entry."""

import affinecaps


def test_every_exported_name_resolves():
    missing = [name for name in affinecaps.__all__ if not hasattr(affinecaps, name)]
    assert not missing, missing
