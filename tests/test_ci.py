"""The CI workflow is the only list of its checks: every step after the install is one
command, every script under ``ci/`` is run by a step, and ``ci/run.py`` runs exactly the
workflow's steps, in its order."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def workflow_runs() -> list[list[str]]:
    """Each step's ``run:`` value as its lines: the text after the key and every line
    below it indented deeper than the key, read without ``ci/run.py``'s parser."""
    runs, lines = [], WORKFLOW.splitlines()
    for i, line in enumerate(lines):
        if key := re.match(r"( *)run:(.*)$", line):
            runs.append([key[2].strip()])
            for below in lines[i + 1:]:
                if below.strip() and len(below) - len(below.lstrip()) <= len(key[1]):
                    break
                runs[-1].append(below.strip())
    return runs


def test_every_run_is_one_command_without_inline_python():
    runs = workflow_runs()
    assert len(runs) == 17, "the install, Tier-1 and 15 checks"
    for run in runs:
        assert len([line for line in run if line]) == 1 and run[0][:1] not in "|>", run
        assert "<<" not in run[0] and not re.search(r"\bpython3? -c?(\s|$)", run[0]), run[0]


def test_every_ci_script_is_run_by_a_step():
    commands = [run[0] for run in workflow_runs()]
    for script in sorted((ROOT / "ci").glob("*.py")):
        if script.name not in ("_common.py", "run.py"):
            assert any(f"ci/{script.name}" in command.split() for command in commands), script.name


def test_run_py_runs_the_workflows_steps_in_order():
    spec = importlib.util.spec_from_file_location("ci_run", ROOT / "ci" / "run.py")
    ci_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci_run)
    assert ci_run.steps(WORKFLOW) == [run[0] for run in workflow_runs()[1:]]


def test_importing_the_ci_helpers_loads_no_numpy():
    probe = "import sys; sys.path.insert(0, 'ci'); import _common; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], cwd=ROOT).returncode == 0
