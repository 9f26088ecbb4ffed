"""Fixtures shared by the test suite; the data comes from ``synthetic``."""
import pytest

from synthetic import random_embedding, synthetic_dataset


@pytest.fixture
def tiny_dataset():
    """Small token-determined corpus for fast training tests."""
    return synthetic_dataset(n=120, seed=3)


@pytest.fixture
def tiny_embedding():
    return random_embedding(seed=3)
