"""DET001 fixture tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro_check import run_rules
from repro_check.determinism import CLOCK_MODULES


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def det1(tmp_path, body):
    write(tmp_path, "src/repro/mod.py", body)
    return run_rules(tmp_path, select=["DET001"])


def test_det001_flags_stdlib_random_import(tmp_path):
    findings = det1(tmp_path, "import random\n")
    assert len(findings) == 1 and "stdlib" in findings[0].message


def test_det001_flags_from_random_import(tmp_path):
    findings = det1(tmp_path, "from random import shuffle\nshuffle([])\n")
    assert [f.line for f in findings] == [1]


def test_det001_flags_unseeded_default_rng(tmp_path):
    findings = det1(tmp_path,
                    "import numpy as np\nrng = np.random.default_rng()\n")
    assert len(findings) == 1 and "unseeded" in findings[0].message


def test_det001_accepts_seeded_default_rng(tmp_path):
    assert det1(tmp_path,
                "import numpy as np\nrng = np.random.default_rng(7)\n") == []


def test_det001_flags_legacy_global_draws(tmp_path):
    findings = det1(tmp_path,
                    "import numpy as np\nx = np.random.randint(0, 9)\n")
    assert len(findings) == 1 and "legacy" in findings[0].message


def test_det001_flags_wallclock_even_via_alias(tmp_path):
    findings = det1(tmp_path,
                    "from time import perf_counter as pc\nt = pc()\n")
    assert len(findings) == 1 and "wall-clock" in findings[0].message


def test_det001_ignores_code_outside_src_prefix(tmp_path):
    write(tmp_path, "scripts/tool.py", "import time\nt = time.time()\n")
    assert run_rules(tmp_path, select=["DET001"]) == []


# -- the clock half skips the modules that time real work ------------------- #

def test_clock_modules_are_the_three_timing_modules():
    assert CLOCK_MODULES == {
        "src/repro/experiments/orchestrator/engine.py",
        "src/repro/experiments/orchestrator/progress.py",
        "src/repro/experiments/figures.py",
    }
    # A renamed module must not leave its old path exempt.
    root = Path(__file__).resolve().parents[2]
    assert all((root / module).is_file() for module in CLOCK_MODULES)


def test_det001_flags_wallclock_outside_clock_modules(tmp_path):
    write(tmp_path, "src/repro/experiments/orchestrator/store.py",
          "import time\nt = time.time()\n")
    findings = run_rules(tmp_path, select=["DET001"])
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/experiments/orchestrator/store.py", 2)]
    assert "wall-clock" in findings[0].message


@pytest.mark.parametrize("module", sorted(CLOCK_MODULES))
def test_det001_accepts_wallclock_in_clock_modules(tmp_path, module):
    write(tmp_path, module,
          "import time\nstart = time.perf_counter()\nnow = time.monotonic()\n")
    assert run_rules(tmp_path, select=["DET001"]) == []


@pytest.mark.parametrize("body, named", [
    ("import numpy as np\nrng = np.random.default_rng()\n", "unseeded"),
    ("import random\n", "stdlib"),
    ("import numpy as np\nx = np.random.rand()\n", "legacy"),
])
def test_det001_checks_randomness_in_clock_modules(tmp_path, body, named):
    write(tmp_path, "src/repro/experiments/figures.py",
          "import time\nt = time.perf_counter()\n" + body)
    findings = run_rules(tmp_path, select=["DET001"])
    assert len(findings) == 1 and named in findings[0].message


@pytest.mark.parametrize("module", [
    "src/repro/sim/engine.py",
    "src/repro/experiments/progress.py",
    "src/repro/figures.py",
])
def test_det001_exempts_clock_modules_by_path_not_file_name(tmp_path, module):
    # A module that shares a timing module's file name elsewhere in the
    # tree is simulation code like any other.
    write(tmp_path, module, "import time\nt = time.time()\n")
    findings = run_rules(tmp_path, select=["DET001"])
    assert [(f.path, f.line) for f in findings] == [(module, 2)]


@pytest.mark.parametrize("body", [
    "from datetime import datetime\nstamp = datetime.now()\n",
    "import datetime\nday = datetime.date.today()\n",
])
def test_det001_flags_datetime_clock_reads(tmp_path, body):
    findings = det1(tmp_path, body)
    assert [f.line for f in findings] == [2]
    assert "wall-clock" in findings[0].message


# The per-line exemption comment of earlier versions is an ordinary comment
# now: wherever it sits, it exempts nothing.
OLD_DIRECTIVE = "# repro: " + "allow-DET001"


@pytest.mark.parametrize("body", [
    f"import time\nt = time.time()  {OLD_DIRECTIVE}\n",
    f"import time\n{OLD_DIRECTIVE}\nt = time.time()\n",
    f"{OLD_DIRECTIVE}-file\nimport time\nt = time.time()\n",
], ids=["trailing", "standalone", "file"])
def test_old_exemption_comment_exempts_nothing(tmp_path, body):
    findings = det1(tmp_path, body)
    assert len(findings) == 1 and "wall-clock" in findings[0].message
