import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def dg():
    """The program package, imported from this checkout's src/."""
    import run

    return run.load_program()
