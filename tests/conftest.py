"""Fixtures shared by the test modules.

Every GLOBFUN_* variable is dropped from the environment when this file is
imported, before any test module is: some build groups at import time, and
the library reads its caps at each check, so an exported cap would reach
them.  Tests that need a cap set it with monkeypatch.setenv.
"""

import os

import pytest

from globfun.perms import PermGroup

for _name in [name for name in os.environ if name.startswith("GLOBFUN_")]:
    del os.environ[_name]


@pytest.fixture
def built_orders(monkeypatch):
    """The order of every PermGroup built while the test runs, in order."""
    orders = []
    init, from_elements = PermGroup.__init__, PermGroup.from_elements

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        orders.append(self.order)

    def counting_from_elements(*args, **kwargs):
        g = from_elements(*args, **kwargs)
        orders.append(g.order)
        return g

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    monkeypatch.setattr(PermGroup, "from_elements", staticmethod(counting_from_elements))
    return orders
