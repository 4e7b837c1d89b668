import gc
import os
import tempfile

import pytest


def _spill_entries(tmpdir):
    return {name for name in os.listdir(tmpdir) if name.startswith("adtape-")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_spill_files():
    """Fail the session if it leaves new ``adtape-*`` spill files or dirs in
    the system temp dir; entries left by earlier runs do not count."""
    tmpdir = tempfile.gettempdir()
    before = _spill_entries(tmpdir)
    yield
    gc.collect()
    leaked = sorted(_spill_entries(tmpdir) - before)
    if leaked:
        pytest.fail(f"spill files leaked into {tmpdir}: {leaked}")
