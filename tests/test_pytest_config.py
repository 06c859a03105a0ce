"""The repo's pytest configuration: one failing test does not stop the rest."""
import pathlib
import subprocess
import sys
import textwrap

INI = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report may warn from inside a pytest hook; with warnings as
    # errors, a warning there is an INTERNALERROR that ends the session
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None, derandomize=True, max_examples=20)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
