"""The package's public surface: the names ``import loopscope`` exports."""

import re
import subprocess
import sys
from pathlib import Path

import loopscope

from circuits import CIRCUITS_DIR, src_env

README = Path(__file__).parent.parent / "README.md"

PUBLIC = {
    "__version__", "parse", "elaborate", "parse_value", "NetlistError",
    "audit", "SingularSystem", "make_grid", "BadRange",
    "render_text", "render_json", "render_curves_csv",
}


def test_public_names_resolve_and_cover_the_readme_example():
    assert len(loopscope.__all__) == len(PUBLIC)
    assert set(loopscope.__all__) == PUBLIC
    for name in loopscope.__all__:
        assert getattr(loopscope, name) is not None, name
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"from loopscope import \(([^)]*)\)", library)
    imported = {name.strip() for name in block.group(1).split(",")}
    assert imported and imported <= PUBLIC


LAZY_PROBE = """
import sys
import loopscope
assert "numpy" not in sys.modules, "import loopscope imported numpy"
with open(sys.argv[1], encoding="utf-8") as fh:
    loopscope.elaborate(loopscope.parse(fh.read()))
assert "numpy" not in sys.modules, "numpy was imported"
assert loopscope.stability.Peak.__module__ == "loopscope.stability"
assert loopscope.report.StabilityReport.__module__ == "loopscope.report"
assert loopscope.audit is sys.modules["loopscope.cli"].audit
star = {}
exec("from loopscope import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(loopscope.__all__)
assert set(loopscope.__all__) <= set(dir(loopscope))
try:
    loopscope.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("loopscope.no_such_name resolved")
"""


def test_netlist_front_end_loads_without_numpy():
    # The numeric layers load on first access; parsing never needs them.
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, str(CIRCUITS_DIR / "opamp_buffer.cir")],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_writes_the_cli_csv(tmp_path, monkeypatch, capsys):
    # The README's library block runs as printed from the repository
    # root, and its curves render to the very bytes of the CLI's --csv.
    library = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(README.parent)
    scope = {}
    exec(block, scope)
    assert "Loop at 5.03 kHz" in capsys.readouterr().out
    csv_path = tmp_path / "cli.csv"
    code = loopscope.cli.main([str(CIRCUITS_DIR / "rlc_loop.cir"), "--all-nodes",
                               "--fstart", "50", "--fstop", "500k", "--ppd", "200",
                               "--csv", str(csv_path)])
    assert code == 2
    assert loopscope.render_curves_csv(scope["curves"]).encode("utf-8") == csv_path.read_bytes()
