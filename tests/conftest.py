import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def source_env():
    """This environment for a child process, with the source tree of this
    checkout first on PYTHONPATH, as ``pythonpath`` puts it first in the
    test process."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
