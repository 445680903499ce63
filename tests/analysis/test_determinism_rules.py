"""DET001 fixture tests."""

from __future__ import annotations

from repro_check import run_rules


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
