"""The package root resolves public names lazily, and a CLI command loads
only the modules it uses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import stskit
from stskit.core import format_sts

SRC = str(Path(stskit.__file__).parents[1])

# Every name the package root re-exported when it imported all its modules,
# by defining module.
ROOT_NAMES = {
    "analysis": ("ChiResult", "MaxDisjointResult", "PCBoundCertificate", "PCEnumeration",
                 "PipelineReport", "SearchBudget", "chi_lower_from_certificate",
                 "chromatic_index_exact", "chromatic_index_heuristic",
                 "enumerate_parallel_classes", "max_disjoint_pcs", "pc_bound", "pc_bound_mod3",
                 "pc_bound_mod3_auto", "pc_bound_ws", "pc_bound_ws_on", "theorem1_pipeline"),
    "constructions": ("LabelledSTS", "LatinSquare", "bose", "bose_conjugate", "bose_half_sum",
                      "conjugate_square", "half_sum_square", "sts33_fixture",
                      "verify_cyclic", "wilson_schreiber"),
    "core": ("Colouring", "PartialParallelClass", "TripleSystem", "VerificationReport",
             "format_sts", "m_lower", "parse_colouring", "parse_sts", "verify_colouring", "verify_sts"),
    "factorisation": ("OneFactorisation", "factorise_G", "verify_factorisation_properties"),
    "generator": ("GenerationError", "batch_system", "check_batch", "check_order",
                  "colouring_survey", "random_sts"),
    "numtheory": ("SCAN_KINDS", "NumberProfile", "f_of", "number_profile", "scan_rows",
                  "subgroup_order"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in ROOT_NAMES.items()
                                          for n in names])
def test_root_name_is_the_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from stskit import {name}", namespace)
    assert namespace[name] is getattr(import_module(f"stskit.{module}"), name)


def test_root_lists_each_public_name_once_and_nothing_else():
    names = stskit.__all__
    assert len(names) == len(set(names))
    assert {n for group in ROOT_NAMES.values() for n in group} <= set(names)
    # Kept as module attributes for the benchmark harness, deleted, or never
    # defined: not exported.
    for name in ("scan_profiles", "factorise_component", "format_colouring",
                 "random_permutation", "min_pc_for_low_chi", "no_such_name"):
        assert name not in names
        with pytest.raises(AttributeError, match=name):
            getattr(stskit, name)


def _modules(code: str, *args: str) -> list[str]:
    """The modules a fresh interpreter holds after ``code``."""
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_modules(code: str, *args: str) -> list[str]:
    """The ``stskit.*`` modules a fresh interpreter holds after ``code``."""
    return [m for m in _modules(code, *args) if m.startswith("stskit.")]


def test_import_loads_no_submodule():
    assert _loaded_modules("import stskit") == []


@pytest.mark.parametrize("module", ["cli", "rng", "core"])
def test_submodule_import_loads_that_module_alone(module):
    assert _loaded_modules(f"from stskit import {module}") == [f"stskit.{module}"]


@pytest.mark.parametrize("argv", [("numtheory", "profile", "--n", "49"),
                                  ("theorem1", "--v", "45")])
def test_cli_command_loads_neither_dataclasses_inspect_nor_hashlib(argv):
    loaded = _modules("import stskit.cli\nstskit.cli.main(sys.argv[1:])", *argv)
    assert "stskit.numtheory" in loaded
    assert [m for m in ("dataclasses", "inspect", "hashlib") if m in loaded] == []


def test_cli_command_loads_only_the_modules_it_uses(tmp_path, fano):
    run_main = "import stskit.cli\nassert stskit.cli.main(sys.argv[1:]) == 0"
    assert _loaded_modules(run_main, "numtheory", "profile", "--n", "49") == [
        "stskit.cli", "stskit.numtheory"]
    path = tmp_path / "fano.sts"
    path.write_text(format_sts(fano))
    assert _loaded_modules(run_main, "verify", "--in", str(path), "--json") == [
        "stskit.cli", "stskit.core"]
