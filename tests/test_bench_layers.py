"""The benchmark's per-layer call sites still exist.

`perfbench/layers.py` times a layer by replacing the function at each of its
`TARGETS` call sites; a site that no longer resolves is skipped, and its
layer reads 0 without failing anything. This test resolves every site the
way `layers.install` does, without installing a wrapper, so a refactor that
removes or renames a traced function fails here.
"""
import importlib
import importlib.util
from pathlib import Path

from phonongate import runner

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)

# sites whose classes were deleted before the benchmark was re-pointed; their
# layers read 0 until it is
DEAD = {
    "phonongate.dynamics:CollapseSet.standard_channels",
    "phonongate.dynamics:Propagator.__init__",
    "phonongate.dynamics:Propagator.advance",
    "phonongate.dynamics:Trajectory.to_csv",
}


def _resolves(site: str) -> bool:
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_live_layer_site_resolves():
    sites = [site for group in layers.TARGETS.values() for site in group]
    assert {site for site in sites if not _resolves(site)} <= DEAD


def test_open_system_calls_the_traced_runner_sites(monkeypatch):
    # the layers wrap runner's own names, so H and the isometry must be built
    # through them, not through another module's
    called = []
    for name in ("system_hamiltonian", "_qubit_isometry"):
        real = getattr(runner, name)
        monkeypatch.setattr(runner, name,
                            lambda *args, real=real, name=name: called.append(name) or real(*args))
    runner.open_system(runner.figure_config("fig3"))
    assert sorted(called) == ["_qubit_isometry", "system_hamiltonian"]
