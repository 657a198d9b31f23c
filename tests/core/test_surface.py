"""Unit tests for the analytic surface engine (:mod:`repro.core.surface`).

The differential suite proves the tables bit-equal to the scalar
oracle; this file covers the machinery around them — build validation,
the installed-surface lifecycle (env gate, growth on miss, scoping),
persistence failure modes through the durable store, and the cache
integration (``clear_caches`` invalidation, ``cache_stats`` reporting,
and the stale-surface regression: a surface built under one machine
view must never serve another's exact lookups).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    AnalyticSurface,
    active_surface,
    cache_stats,
    clear_caches,
    install_surface,
    installed_surface,
    optimal_k,
    optimal_k_exact,
    optimal_k_exact_scalar,
    optimal_k_scalar,
    surface_enabled,
    surface_scope,
    surface_stats,
    uninstall_surface,
)
from repro.core.surface import (
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    MAX_M_MAX,
    MAX_N_MAX,
    surface_optimal_k,
    surface_optimal_k_exact,
    surface_steps_needed,
)
from repro.durable.errors import StoreCorruptionError, StoreVersionError, ValidationError
from repro.obs import GLOBAL_METRICS


@pytest.fixture(autouse=True)
def _pristine_surface_state(monkeypatch):
    """Each test starts with no installed surface and the gate unset."""
    monkeypatch.delenv("REPRO_SURFACE", raising=False)
    uninstall_surface()
    yield
    uninstall_surface()


# -- build validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_max": 1, "m_max": 4},
        {"n_max": 16, "m_max": 0},
        {"n_max": MAX_N_MAX * 2, "m_max": 4},
        {"n_max": 16, "m_max": 4, "exact": True, "ports": 0},
    ],
)
def test_build_rejects_bad_bounds(kwargs):
    with pytest.raises(ValidationError):
        AnalyticSurface.build(**kwargs)


def test_build_shapes_and_stats():
    surf = AnalyticSurface.build(64, 8)
    assert (surf.n_max, surf.m_max, surf.k_max) == (64, 8, 6)
    assert not surf.has_exact and surf.exact_ports is None
    stats = surf.stats()
    assert stats["table_entries"] == surf.table_entries > 0
    assert stats["build_seconds"] == surf.build_seconds >= 0.0
    # Lookups count as hits on the instance.
    before = surf.hits
    surf.optimal_k(10, 3)
    surf.steps_needed(10, 2)
    assert surf.hits == before + 2


def test_contains_and_grid_bounds():
    surf = AnalyticSurface.build(32, 4)
    assert surf.contains(2, 1) and surf.contains(32, 4)
    assert not surf.contains(1, 1) and not surf.contains(33, 1)
    assert not surf.contains(2, 5)
    grid = surf.optimal_k_grid([2, 10, 32], [1, 4])
    assert grid.shape == (3, 2)
    assert grid[1, 0] == optimal_k_scalar(10, 1)
    with pytest.raises(KeyError):
        surf.optimal_k_grid([2, 33], [1])
    with pytest.raises(KeyError):
        surf.optimal_k_grid([2], [5])
    with pytest.raises(ValidationError):
        surf.optimal_k_grid([], [1])


def test_latency_surface_shape_and_zero_rows():
    from repro.params import PAPER_MACHINE

    surf = AnalyticSurface.build(16, 4)
    grid = surf.latency_surface(PAPER_MACHINE)
    assert grid.shape == (17, 4)
    assert np.all(grid[:2, :] == 0.0)
    assert grid[16, 0] == surf.latency_us(16, 1, PAPER_MACHINE)


# -- persistence failure modes ----------------------------------------------


def test_save_embeds_manifest_and_loads_clean(tmp_path):
    surf = AnalyticSurface.build(24, 6)
    path = tmp_path / "surface.json"
    surf.save(path)
    doc = json.loads(path.read_text())
    assert doc["manifest"]["kind"] == "analytic_surface"
    assert doc["manifest"]["package"] == "repro"
    assert doc["version"] == 1
    loaded = AnalyticSurface.load(path)
    assert np.array_equal(loaded._optimal, surf._optimal)


def test_load_rejects_tampered_store(tmp_path):
    surf = AnalyticSurface.build(24, 6)
    path = tmp_path / "surface.json"
    surf.save(path)
    text = path.read_text()
    tampered = text.replace('"n_max": 24', '"n_max": 25', 1)
    assert tampered != text
    path.write_text(tampered)
    with pytest.raises(StoreCorruptionError):
        AnalyticSurface.load(path)


def test_load_rejects_wrong_version(tmp_path):
    from repro.durable.atomic import atomic_write_json

    surf = AnalyticSurface.build(8, 2)
    payload = surf.to_payload()
    payload["version"] = 99
    path = tmp_path / "surface.json"
    atomic_write_json(path, payload)
    with pytest.raises(StoreVersionError):
        AnalyticSurface.load(path)


def test_from_payload_rejects_missing_fields():
    surf = AnalyticSurface.build(8, 2)
    payload = surf.to_payload()
    del payload["steps"]
    with pytest.raises(ValidationError):
        AnalyticSurface.from_payload(payload)


# -- installed surface lifecycle ---------------------------------------------


def test_install_requires_a_surface():
    with pytest.raises(ValidationError):
        install_surface("not a surface")


def test_env_gate(monkeypatch):
    assert not surface_enabled()
    monkeypatch.setenv("REPRO_SURFACE", "0")
    assert not surface_enabled()
    assert active_surface(10, 2) is None  # gate off: scalar fallback
    monkeypatch.setenv("REPRO_SURFACE", "1")
    assert surface_enabled()


def test_dispatchers_install_and_grow(monkeypatch):
    monkeypatch.setenv("REPRO_SURFACE", "1")
    # First lookup auto-installs a default-bounds surface (one miss).
    assert surface_optimal_k(10, 3) == optimal_k_scalar(10, 3)
    surf = installed_surface()
    assert (surf.n_max, surf.m_max) == (DEFAULT_N_MAX, DEFAULT_M_MAX)
    assert surface_stats() == {"hits": 1, "misses": 1, "installed": surf.stats()}
    # A lookup past the horizon grows by doubling, preserving answers.
    assert surface_optimal_k(DEFAULT_N_MAX * 2 + 1, 3) == optimal_k_scalar(
        DEFAULT_N_MAX * 2 + 1, 3
    )
    grown = installed_surface()
    assert grown is not surf and grown.n_max == DEFAULT_N_MAX * 4
    assert grown.m_max == DEFAULT_M_MAX
    from repro.core import steps_needed

    assert surface_steps_needed(300, 2) == steps_needed(300, 2)
    assert surface_stats()["misses"] == 2


def test_optimal_k_past_the_m_cap_uses_the_scalar_search(monkeypatch):
    """A huge m never grows the tables, whose size is linear in m_max."""
    monkeypatch.setenv("REPRO_SURFACE", "1")
    m = MAX_M_MAX + 1
    assert optimal_k(200, m) == optimal_k_scalar(200, m)
    assert installed_surface() is None
    assert optimal_k(200, MAX_M_MAX) == optimal_k_scalar(200, MAX_M_MAX)
    assert installed_surface().m_max == MAX_M_MAX


def test_surface_scope_restores_env_and_instance(monkeypatch):
    monkeypatch.setenv("REPRO_SURFACE", "0")
    outer = install_surface(AnalyticSurface.build(8, 2))
    inner = AnalyticSurface.build(16, 4)
    with surface_scope(inner) as active:
        assert active is inner and installed_surface() is inner
        assert surface_enabled()
    assert installed_surface() is outer
    assert not surface_enabled()
    with surface_scope(False):
        assert not surface_enabled()
    with surface_scope(True):
        assert surface_enabled()
        assert installed_surface() is outer
    # None leaves everything alone.
    with surface_scope(None) as active:
        assert active is outer


# -- cache integration (the satellite-4 regressions) -------------------------


def test_clear_caches_uninstalls_surface():
    """A cleared cache registry can never leave a stale surface serving."""
    install_surface(AnalyticSurface.build(16, 4))
    assert installed_surface() is not None
    clear_caches()
    assert installed_surface() is None
    assert surface_stats() == {"hits": 0, "misses": 0, "installed": None}


def test_cache_stats_reports_surface(monkeypatch):
    monkeypatch.setenv("REPRO_SURFACE", "1")
    clear_caches()
    surface_optimal_k(20, 4)
    surface_optimal_k(21, 4)
    stats = cache_stats()["surface"]
    assert stats.hits == 2 and stats.misses == 1
    assert stats.currsize == installed_surface().table_entries
    # The counters also flow into the global metrics snapshot.
    snapshot = GLOBAL_METRICS.snapshot()["cache"]["surface"]
    assert snapshot["hits"] == 2 and snapshot["misses"] == 1
    clear_caches()


def test_stale_surface_cannot_survive_machine_change(monkeypatch):
    """Exact tables built for one ports value never serve another.

    A MachineParams change (here: NI port count) must force the exact
    dispatcher back to the scalar oracle — the surface refuses with
    KeyError and the public wrapper recomputes, so the answer tracks
    the *new* machine even while the old surface stays installed.
    """
    monkeypatch.setenv("REPRO_SURFACE", "1")
    install_surface(AnalyticSurface.build(32, 8, exact=True, ports=2))
    # Served for the machine it was built for...
    assert surface_optimal_k_exact(24, 4, ports=2) == optimal_k_exact_scalar(24, 4, ports=2)
    # ...refused (None) for any other view, and the wrapper falls back.
    assert surface_optimal_k_exact(24, 4, ports=1) is None
    assert optimal_k_exact(24, 4, ports=1) == optimal_k_exact_scalar(24, 4, ports=1)
    assert surface_stats()["misses"] >= 1
    # Same refusal when the surface has no exact tables at all.
    install_surface(AnalyticSurface.build(32, 8))
    assert surface_optimal_k_exact(24, 4, ports=1) is None
    # And with nothing installed the dispatcher declines immediately.
    uninstall_surface()
    assert surface_optimal_k_exact(24, 4) is None


def test_latency_params_taken_per_call():
    """Paper tables are machine-free: latency reflects the params given now."""
    from repro.params import MachineParams

    surf = AnalyticSurface.build(32, 8)
    slow = MachineParams(t_s=10.0, t_r=10.0, t_step=4.0)
    fast = MachineParams(t_s=1.0, t_r=1.0, t_step=0.5)
    steps = surf.optimal_steps(20, 4)
    assert surf.latency_us(20, 4, slow) == 10.0 + steps * 4.0 + 10.0
    assert surf.latency_us(20, 4, fast) == 1.0 + steps * 0.5 + 1.0
