"""Fixtures shared by the cycle-model tests."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.compiler.cache import compile_program
from repro.core.config import ChipConfig
from repro.workloads import benchmark


@pytest.fixture(scope="package")
def benchmark_program():
    """``benchmark_program(name, compiled)``: a Table 3 program, plain or
    compiled for CraterLake, generated once for every test in this
    package and released after the last of them."""

    @lru_cache(maxsize=None)
    def build(name: str, compiled: bool):
        program = benchmark(name)
        return compile_program(program, ChipConfig()) if compiled else program

    yield build
    build.cache_clear()
