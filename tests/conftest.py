"""Fixtures shared by the test modules."""

import pytest

from globfun.perms import PermGroup


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
