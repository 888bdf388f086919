import pytest

from quadsemi import base_qhs, build_regular_qhs, engine, textio


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Start and end every test with an empty parse memo and no quotient
    chains, so that no test, here or in another suite, depends on texts an
    earlier test parsed or on quotients an earlier test stepped."""
    textio._parse_once.cache_clear()
    engine._rules.cache_clear()
    yield
    textio._parse_once.cache_clear()
    engine._rules.cache_clear()


@pytest.fixture(scope="session")
def m1():
    return base_qhs(1)


@pytest.fixture(scope="session")
def m2():
    return base_qhs(2)


@pytest.fixture(scope="session")
def m3():
    return base_qhs(3)


@pytest.fixture(scope="session")
def m4():
    return base_qhs(4)


@pytest.fixture(scope="session")
def tower5():
    return build_regular_qhs(5)
