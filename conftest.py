"""Pytest root configuration.

Makes the ``src`` layout importable even when the package has not been
installed (useful in offline environments where editable installs are not
possible); an installed ``repro`` takes precedence if present.  Every test
starts with an empty link memo, so cache counters and oracle comparisons
never depend on which tests ran before.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(autouse=True)
def _empty_link_memo():
    from repro.link.memo import clear_link_memo

    clear_link_memo()
