"""Packaging-level sanity: public surface imports and metadata."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.metric",
            "repro.mtree",
            "repro.vptree",
            "repro.btree",
            "repro.skyline",
            "repro.anns",
            "repro.storage",
            "repro.datasets",
            "repro.bench",
            "repro.streaming",
            "repro.service",
        ],
    )
    def test_subpackages_import(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} must be documented"

    def test_console_script_target(self):
        from repro.bench.cli import main

        assert callable(main)

    def test_serve_console_script_target(self):
        from repro.service.loadgen import main

        assert callable(main)

    def test_console_scripts_declared(self):
        import pathlib

        pyproject = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert 'repro-bench = "repro.bench.cli:main"' in pyproject
        assert 'repro-serve = "repro.service.loadgen:main"' in pyproject

    def test_py_typed_marker_installed(self):
        import importlib.resources
        import pathlib

        # resolvable through the import system (how type checkers and
        # installed distributions see it) ...
        marker = importlib.resources.files("repro").joinpath("py.typed")
        assert marker.is_file(), "src/repro/py.typed must ship"
        # ... and declared as package data so wheels include it.
        pyproject = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert "py.typed" in pyproject, (
            "pyproject must declare py.typed package data"
        )

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.core",
            "repro.metric",
            "repro.mtree",
            "repro.storage",
            "repro.datasets",
            "repro.streaming",
            "repro.service",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (
                    module_name, name,
                )


class TestDocumentationPresence:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/architecture.md",
            "docs/algorithms.md",
            "docs/api.md",
            "docs/serving.md",
        ],
    )
    def test_docs_exist_and_nonempty(self, path):
        import pathlib

        full = pathlib.Path(__file__).parent.parent / path
        assert full.exists(), path
        assert len(full.read_text()) > 500, path

    def test_every_public_module_has_docstring(self):
        import pathlib

        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        for module in src.rglob("*.py"):
            text = module.read_text()
            if module.name == "__main__.py":
                continue
            assert text.lstrip().startswith(('"""', "'''")), module
