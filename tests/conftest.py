import os
import sys

import pytest

try:
    import evostab
except ImportError:  # neither installed nor on PYTHONPATH: test this checkout's src
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    import evostab


@pytest.fixture
def package_env():
    """Environment for subprocesses that must import the same ``evostab``
    as the test process, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evostab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
