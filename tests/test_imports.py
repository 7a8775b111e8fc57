import os
import subprocess
import sys

import majorant


def test_import_does_not_load_scipy():
    # scipy is only a test oracle; `import scipy.integrate` alone costs
    # several times the numpy import, and every CLI run would pay it
    src = os.path.dirname(os.path.dirname(os.path.abspath(majorant.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, majorant; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
