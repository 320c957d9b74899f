import sys

import pytest

from padicmhs.prover import CACHE_ENV_VAR


@pytest.fixture(autouse=True, scope="session")
def hermetic_relation_cache(tmp_path_factory):
    """Point the default relation cache at a fresh directory for the whole run.

    A test that passes no cache directory would otherwise read and write the
    per-user cache, whose contents (a larger basis, stale files) differ from
    machine to machine.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV_VAR, str(tmp_path_factory.mktemp("relation-cache")))
        yield


def pytest_terminal_summary(terminalreporter):
    for name, module in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "ACCEPTANCE_LINES", None)
            if lines:
                terminalreporter.write_sep("-", "acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            break
