import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))


@pytest.fixture
def subprocess_env():
    """This environment with the package source first on ``PYTHONPATH``,
    which pytest's ``pythonpath`` setting does not pass on to children."""
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@pytest.fixture(autouse=True)
def fresh_point_record():
    """No test sees a point record (panels, rules and line sums) that an
    earlier test left in the memo of ``low_moments``, which keeps the last
    point's."""
    from brownian_unicycle import low_moments
    low_moments._point_record.cache_clear()
