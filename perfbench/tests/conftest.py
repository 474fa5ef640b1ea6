import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))


@pytest.fixture
def workdir(request):
    """A scratch directory under perfbench/out, removed afterwards."""
    path = BENCH / "out" / f"test-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
