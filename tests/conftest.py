import pytest
from hypothesis import settings

from bipblocks import cli

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _fresh_family_memo():
    # verify_case keeps each solved family for the life of the process;
    # each test starts without them, so a spy sees every solve
    cli._solved_family.cache_clear()
