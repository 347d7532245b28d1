"""The package's public surface."""

import paramloss


def test_every_public_name_resolves():
    assert len(set(paramloss.__all__)) == len(paramloss.__all__)
    for name in paramloss.__all__:
        assert getattr(paramloss, name) is not None, name
