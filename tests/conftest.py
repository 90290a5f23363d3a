from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from statsynth.reference import EcommerceParams, generate
from statsynth.schema import Continuous, Dataset, Discrete, Variable, VariableSchema

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failing
# bit-for-bit comparison reproduces, and prints the blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def ref_2k() -> Dataset:
    return generate(EcommerceParams(), 2000, seed=11)


@pytest.fixture(scope="session")
def ref_100k() -> Dataset:
    return generate(EcommerceParams(), 100_000, seed=123)


@pytest.fixture()
def tiny_schema() -> VariableSchema:
    return VariableSchema((
        Variable("color", Discrete(("red", "green", "blue"))),
        Variable("size", Continuous(0.0, 10.0)),
    ))


@pytest.fixture()
def two_binary_schema() -> VariableSchema:
    return VariableSchema((
        Variable("a", Discrete(("A0", "A1"))),
        Variable("b", Discrete(("B0", "B1"))),
    ))


def make_dataset(schema: VariableSchema, rows) -> Dataset:
    return Dataset.from_records(schema, rows)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
