import os
import subprocess
import sys

import reszo


def test_import_loads_no_numba_scipy_or_concurrent_futures():
    # Each would add to start-up time and resident memory.  A minimal
    # environment keeps outside settings out of the child; PYTHONPATH
    # points it at the same reszo the parent imported, whether installed
    # or on a source path.
    code = (
        "import sys, reszo; "
        "print(' '.join(m for m in ('numba', 'scipy', 'concurrent.futures') if m in sys.modules))"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(reszo.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "HOME": "/tmp", "PYTHONPATH": package_root},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
