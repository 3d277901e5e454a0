"""Every golden cell reproduces its pinned digests in every order.

Regenerate with ``PYTHONPATH=src python -m tests.golden.corpus --write``
and call out every changed entry in the change description.
"""

import pytest

from tests.golden.corpus import CELLS, ORDERS, load_goldens, mismatches


def test_every_golden_entry_has_a_cell():
    assert set(load_goldens()) == {cell.golden for cell in CELLS}


@pytest.mark.parametrize("order", ORDERS)
def test_cells_reproduce_their_digests(order):
    assert mismatches(order) == []
