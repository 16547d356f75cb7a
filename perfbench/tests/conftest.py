import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


@pytest.fixture(autouse=True)
def at_root():
    """The benchmark writes under perfbench/out relative to the checkout."""
    old = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(old)
