"""The package's public surface: the names ``import loopscope`` exports."""

import re
from pathlib import Path

import loopscope

README = Path(__file__).parent.parent / "README.md"

PUBLIC = {
    "__version__", "parse", "elaborate", "parse_value", "NetlistError",
    "build_pattern", "SingularSystem", "make_grid", "BadRange", "inject_node",
    "sweep_all_nodes", "analyze_response", "build_report", "render_text",
    "render_json", "render_curves_csv",
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
