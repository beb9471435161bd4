"""Shared fixtures: small deterministic corpora and a quickly-trained model.

Expensive artefacts (datasets, the trained model) are session-scoped so the
suite builds them once.
"""

from __future__ import annotations

import pytest

from repro.api import AsteriaEngine, EngineConfig
from repro.compiler.pipeline import cross_compile, library_function_defs
from repro.core import (
    Asteria,
    AsteriaConfig,
    TrainConfig,
    Trainer,
    build_cross_arch_pairs,
    to_tree_pairs,
)
from repro.core.pairs import split_pairs
from repro.evalsuite.datasets import build_buildroot_dataset, build_openssl_dataset
from repro.evalsuite.vulnsearch import VulnerabilitySearch
from repro.lang.generator import generate_corpus


@pytest.fixture(scope="session")
def packages():
    """Three deterministic packages."""
    return generate_corpus(seed=21, n_packages=3)


@pytest.fixture(scope="session")
def package(packages):
    return packages[0]


@pytest.fixture(scope="session")
def binaries(package):
    """The first package cross-compiled for all four architectures."""
    return cross_compile(package)


@pytest.fixture(scope="session")
def library_defs():
    return library_function_defs()


@pytest.fixture(scope="session")
def buildroot_small():
    return build_buildroot_dataset(n_packages=3, seed=7)


@pytest.fixture(scope="session")
def openssl_small():
    return build_openssl_dataset(n_functions=16, seed=9)


@pytest.fixture(scope="session")
def trained_model(buildroot_small):
    """An Asteria model trained briefly (enough to separate pairs)."""
    pairs = to_tree_pairs(
        build_cross_arch_pairs(buildroot_small.functions, 12, seed=1)
    )
    train, dev = split_pairs(pairs, 0.85, seed=2)
    model = Asteria(AsteriaConfig(hidden_dim=32))
    trainer = Trainer(model.siamese, TrainConfig(epochs=2, lr=0.05))
    trainer.train(train, dev)
    return model


@pytest.fixture(scope="session")
def make_vuln_search(trained_model):
    """Factory: a ``VulnerabilitySearch`` over a fresh private engine
    around the trained model (optionally sharing an artifact ``cache``)."""

    def make(threshold: float = 0.84, cache=None) -> VulnerabilitySearch:
        engine = AsteriaEngine(
            EngineConfig(), model=trained_model, cache=cache,
        )
        return VulnerabilitySearch(engine, threshold=threshold)

    return make
