"""The CLI reaches the pipeline's stages through one entry point,
`pipeline.run_stage`: it imports from `pipeline` only that function and the
config, workspace and name tables it needs to call it, and imports no other
module that imports from `pipeline`, which could run a stage around it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgadapters"

PIPELINE_NAMES = {"run_stage", "PipelineConfig", "Workspace", "PROFILES", "TASKS"}


def kgadapters_imports(path) -> dict[str, set[str]]:
    """kgadapters module -> the names the file imports from it; importing the
    module itself counts as the name "*"."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not (node.module or "").startswith("kgadapters"):
            continue
        if isinstance(node, ast.ImportFrom) and node.module not in (None, "kgadapters"):
            found.setdefault(node.module.split(".")[-1], set()).update(
                a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                found.setdefault(a.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("kgadapters."):
                    found.setdefault(a.name.split(".")[-1], set()).add("*")
    return found


def test_cli_imports_from_pipeline_only_the_entry_point():
    imported = kgadapters_imports(SRC / "cli.py").get("pipeline", set())
    assert imported <= PIPELINE_NAMES, sorted(imported - PIPELINE_NAMES)


def test_cli_imports_no_module_that_imports_the_pipeline():
    wrappers = [module for module in kgadapters_imports(SRC / "cli.py")
                if module != "pipeline"
                and "pipeline" in kgadapters_imports(SRC / f"{module}.py")]
    assert not wrappers, wrappers


def test_the_check_sees_each_form_of_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .pipeline import run_stage\nfrom . import pipeline\n"
                    "import kgadapters.ablation\nfrom kgadapters.evaluation import rank\n"
                    "import numpy\nfrom pathlib import Path\n", encoding="utf-8")
    assert kgadapters_imports(path) == {"pipeline": {"run_stage", "*"}, "ablation": {"*"},
                                        "evaluation": {"rank"}}
