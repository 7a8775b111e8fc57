import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import majorant


def test_import_does_not_load_scipy():
    # scipy is only a test oracle; `import scipy.integrate` alone costs
    # several times the numpy import, and every CLI run would pay it
    src = os.path.dirname(os.path.dirname(os.path.abspath(majorant.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, majorant; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_every_exported_name_resolves():
    missing = [name for name in majorant.__all__ if not hasattr(majorant, name)]
    assert not missing
    assert len(set(majorant.__all__)) == len(majorant.__all__)


def test_traced_benchmark_targets_resolve():
    # perfbench/tracing.py rebinds these names during a traced run; a name
    # deleted from the package must fail here, not in the benchmark.  The
    # file is compiled from its text, so nothing is written next to it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    scope = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), scope)
    assert scope["TARGETS"]
    for span, module, attr_path, _ in scope["TARGETS"]:
        owner = importlib.import_module(f"majorant.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: majorant.{module}.{attr_path} is gone"
        assert callable(owner), span


def test_every_exported_name_is_used_in_the_package():
    # Unused API is deleted: each exported name is read somewhere in the
    # package outside its own top-level definition, so a name that only
    # tests call belongs in the tests.  The names the benchmark tracer
    # rebinds stay while it does.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    scope = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), scope)
    exempt = {attr_path for _, _, attr_path, _ in scope["TARGETS"]}
    used = set()
    for file in Path(majorant.__file__).parent.glob("*.py"):
        for stmt in ast.parse(file.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(getattr(node, "ctx", None), ast.Load) and name != own:
                    used.add(name)
    assert [n for n in majorant.__all__ if n not in used | exempt] == []
