import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle module
# processes the tests start (``python -m gridperc.cli``) import the package
# from this tree, as pytest's ``pythonpath`` setting does for the tests
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from gridperc.pipelines import Builder


@pytest.fixture(scope="session")
def builder() -> Builder:
    """One shared Builder: witness resolution is memoized across tests."""
    return Builder()
