import pytest

from quadsemi import base_qhs, build_regular_qhs


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
