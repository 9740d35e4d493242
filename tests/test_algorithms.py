"""The algorithm registry: every consumer names a kernel through it."""

import argparse

import pytest

from repro.bench.experiments import _key
from repro.cli import build_parser
from repro.core.algorithms import ALGORITHMS
from repro.service import ALGORITHMS as SERVICE_ALGORITHMS


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_row_builds_the_kernel_its_label_names(name):
    # The ledger's call shape: a partial params mapping and a start.
    kernel = SERVICE_ALGORITHMS[name][0]({}, 0)
    # ``bench --algorithm`` takes the kernel's label for the row.
    assert _key(kernel.name) == name


@pytest.mark.parametrize("command", ["run", "query", "recommend"])
def test_algorithm_choices_are_the_registry_keys(command):
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    choices = next(action.choices
                   for action in commands.choices[command]._actions
                   if action.dest == "algorithm")
    assert sorted(choices) == sorted(ALGORITHMS)
