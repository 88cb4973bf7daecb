"""Test-suite settings: hypothesis runs the same examples on every run
and writes no ``.hypothesis/`` directory.

``database=None`` keeps no example database.  Hypothesis also caches the
constants it reads from the source under its home directory, so that
home is a temporary directory, removed when the test process exits.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("graphfix", derandomize=True, database=None)
settings.load_profile("graphfix")

_home = tempfile.TemporaryDirectory(prefix="graphfix-hypothesis-")
set_hypothesis_home_dir(_home.name)
