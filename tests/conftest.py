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


@pytest.fixture
def fadvise_calls(monkeypatch):
    """The arguments of every ``os.posix_fadvise`` call, recorded instead of
    made; the hint is enabled as on a platform that has the call."""
    from adtape import blockstore

    calls = []
    monkeypatch.setattr(os, "posix_fadvise", lambda *args: calls.append(args),
                        raising=False)
    monkeypatch.setattr(os, "POSIX_FADV_WILLNEED",
                        getattr(os, "POSIX_FADV_WILLNEED", 3), raising=False)
    monkeypatch.setattr(blockstore, "_HAS_FADVISE", True)
    return calls
