"""The public API surface: everything advertised must be importable
and every ``__all__`` name must resolve."""

import importlib
import pathlib
import re

import pytest

SUBPACKAGES = [
    "repro",
    "repro.video",
    "repro.codecs",
    "repro.codecs.entropy",
    "repro.trace",
    "repro.uarch",
    "repro.uarch.branch",
    "repro.cbp",
    "repro.parallel",
    "repro.profiling",
    "repro.resilience",
    "repro.obs",
    "repro.core",
    "repro.experiments",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version():
    import repro

    assert repro.__version__


def test_error_hierarchy():
    from repro import errors

    for cls in (errors.VideoError, errors.CodecError, errors.TraceError,
                errors.SimulationError, errors.ExperimentError):
        assert issubclass(cls, errors.ReproError)
        assert issubclass(cls, Exception)


def test_paper_entry_points_exist():
    """The names the README promises."""
    from repro.cbp import capture_trace, run_championship  # noqa: F401
    from repro.codecs import create_encoder  # noqa: F401
    from repro.core import characterize, format_result  # noqa: F401
    from repro.experiments import run_experiment  # noqa: F401
    from repro.parallel import thread_scaling  # noqa: F401
    from repro.video import vbench  # noqa: F401


def test_env_knobs_are_documented():
    """Every ``REPRO_*`` variable the source reads is in README's table."""
    root = pathlib.Path(__file__).resolve().parent.parent
    in_source = {
        match
        for path in (root / "src" / "repro").rglob("*.py")
        for match in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    readme = (root / "README.md").read_text()
    section = readme.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
    assert in_source == documented
