"""Tests for the package's public namespace."""
from __future__ import annotations

import inspect
import types

import oddperfect


def test_every_exported_name_resolves():
    assert len(oddperfect.__all__) == len(set(oddperfect.__all__))
    for name in oddperfect.__all__:
        assert not isinstance(getattr(oddperfect, name), types.ModuleType), name
    assert {"run_search", "split_solution", "two_adic_certificate",
            "identity_sweep", "CheckpointError"} <= set(oddperfect.__all__)


def test_removed_names_are_gone():
    for name in ("search_two_n_squared", "search_n_squared", "resume_config",
                 "SearchInterrupted", "gcd"):
        assert name not in oddperfect.__all__
        assert not hasattr(oddperfect, name), name


def test_run_search_takes_only_a_config():
    assert list(inspect.signature(oddperfect.run_search).parameters) == ["cfg"]


def test_size_parameters_are_constants():
    for fn in (oddperfect.factorize, oddperfect.odd_multiperfect_upto):
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__
