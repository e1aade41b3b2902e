import os
import pathlib
import subprocess
import sys

from eccforge import CertificateReport, Multigraph

# `dataclasses` and the standard-library modules it pulls in, and numpy,
# which only the benchmark uses
HEAVY = ("dataclasses", "inspect", "ast", "dis", "numpy")


def _fresh_modules(code: str) -> set[str]:
    """Module names loaded in a fresh interpreter after running `code`."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = f"import sys\n{code}\nprint('\\n'.join(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_heavy_module():
    # the site hooks may load modules before any user code runs, so compare
    # with a bare interpreter started the same way
    bare = _fresh_modules("")
    loaded = _fresh_modules("import eccforge") - bare
    assert "eccforge.certificates" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))


def test_import_loads_no_typing():
    # without site hooks nothing but the import itself can load `typing`;
    # the library names its annotations with builtins and collections.abc
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = "import sys\nimport eccforge\nprint('typing' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_certificate_report_surface():
    g = Multigraph()
    by_position = CertificateReport(g, {1, 2})
    by_keyword = CertificateReport(eprime={1, 2}, certificate=g)
    assert by_position.certificate is g and by_position.eprime == {1, 2}
    assert by_position == by_keyword
    assert by_position != CertificateReport(g, {1})
    assert by_position != CertificateReport(Multigraph(), {1, 2})
    assert by_position.__eq__((g, {1, 2})) is NotImplemented
    text = repr(by_position)
    assert text.startswith("CertificateReport(certificate=")
    assert text.endswith(", eprime={1, 2})")
