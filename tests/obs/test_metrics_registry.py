"""The unified metrics registry: cache, service, and sim layers."""

from __future__ import annotations

import pytest

from repro.machine import Machine
from repro.obs import GLOBAL_METRICS, MetricsRegistry, sanitize_metric_name
from repro.obs.metrics import cache_snapshot


def test_register_and_snapshot():
    reg = MetricsRegistry()
    reg.register("a", lambda: {"x": 1})
    reg.set_gauges("b", {"y": 2.5})
    assert reg.names() == ("a", "b")
    assert reg.snapshot() == {"a": {"x": 1}, "b": {"y": 2.5}}


def test_register_is_last_writer_wins():
    reg = MetricsRegistry()
    reg.register("a", lambda: {"v": 1})
    reg.register("a", lambda: {"v": 2})
    assert reg.snapshot() == {"a": {"v": 2}}


def test_unregister_is_idempotent():
    reg = MetricsRegistry()
    reg.register("a", lambda: {})
    reg.unregister("a")
    reg.unregister("a")
    assert reg.names() == ()


def test_set_gauges_copies_now():
    reg = MetricsRegistry()
    values = {"x": 1}
    reg.set_gauges("g", values)
    values["x"] = 99
    assert reg.snapshot()["g"] == {"x": 1}


def test_failing_provider_is_isolated():
    reg = MetricsRegistry()

    def boom():
        raise RuntimeError("nope")

    reg.register("bad", boom)
    reg.register("good", lambda: {"ok": True})
    snap = reg.snapshot()
    assert snap["good"] == {"ok": True}
    assert "nope" in snap["bad"]["error"]


def test_non_callable_provider_rejected():
    with pytest.raises(TypeError):
        MetricsRegistry().register("a", {"not": "callable"})


def test_global_registry_unifies_cache_service_and_sim():
    from repro.service.metrics import ServiceMetrics

    metrics = ServiceMetrics()  # registers itself under "service"
    metrics.requests.inc()
    machine = Machine.irregular(seed=0)
    hosts = machine.hosts
    machine.multicast(hosts[0], hosts[1:8], 512)  # publishes "sim" gauges

    snap = GLOBAL_METRICS.snapshot()
    assert {"cache", "service", "sim"} <= set(snap)
    assert snap["service"]["counters"]["requests"] >= 1
    assert snap["sim"]["ni_buffer_peak"] >= 1
    assert snap["sim"]["hosts"] == 64
    # Cache counters flow through unchanged; the multicast planned with
    # the memoized optimal_k, so that family has counted calls.
    assert snap["cache"] == cache_snapshot()
    optimal_k = snap["cache"]["optimal_k"]
    assert optimal_k["hits"] + optimal_k["misses"] >= 1


def test_sim_gauges_mirror_simulator_attribute():
    machine = Machine.irregular(seed=1)
    hosts = machine.hosts
    machine.multicast(hosts[0], hosts[1:4], 128)
    gauges = machine.simulator.last_gauges
    assert gauges == GLOBAL_METRICS.snapshot()["sim"]
    assert gauges["ni_buffer_avg"] >= 0.0


def test_reset_restores_the_baseline_providers():
    reg = MetricsRegistry({"base": lambda: {"v": 1}})
    reg.register("runtime", lambda: {"v": 2})
    reg.set_gauges("gauges", {"v": 3})
    reg.reset()
    assert reg.names() == ("base",)
    assert reg.snapshot() == {"base": {"v": 1}}


def test_global_reset_keeps_the_cache_builtin():
    GLOBAL_METRICS.register("ephemeral", lambda: {})
    GLOBAL_METRICS.reset()
    assert GLOBAL_METRICS.names() == ("cache",)


def test_fixture_isolates_runtime_registrations():
    # The autouse conftest fixture resets GLOBAL_METRICS after every
    # test, so runtime registrations made by earlier tests (simulators,
    # plan servers) must never be visible here.
    assert GLOBAL_METRICS.names() == ("cache",)


def test_sanitize_passes_valid_names_through():
    for name in ("cache", "plan_latency", "A15", "_private", "x2"):
        assert sanitize_metric_name(name) == name


def test_sanitize_replaces_prometheus_hostile_characters():
    assert sanitize_metric_name("plan-latency.p99") == "plan_latency_p99"
    assert sanitize_metric_name("per cpu") == "per_cpu"
    assert sanitize_metric_name("9lives") == "_9lives"


def test_sanitize_rejects_hopeless_names():
    with pytest.raises(ValueError):
        sanitize_metric_name("")
    with pytest.raises(TypeError):
        sanitize_metric_name(7)


def test_provider_names_sanitized_at_registration():
    # Regression: names are cleaned on the way *in*, so every snapshot
    # key is already a legal Prometheus metric-name component.
    reg = MetricsRegistry()
    reg.register("my-provider.v2", lambda: {"x": 1})
    reg.set_gauges("some gauges", {"bad-key.name": 2.0})
    snap = reg.snapshot()
    assert snap["my_provider_v2"] == {"x": 1}
    assert snap["some_gauges"] == {"bad_key_name": 2.0}
    reg.unregister("my-provider.v2")  # unregister sanitizes too
    assert "my_provider_v2" not in reg.snapshot()


def test_snapshot_order_is_deterministic():
    # Regression: snapshots iterate providers in sorted order, so two
    # registries holding the same providers render identically no
    # matter the registration order (the exposition layer's contract).
    forward, backward = MetricsRegistry(), MetricsRegistry()
    names = ["zeta", "alpha", "mid"]
    for name in names:
        forward.register(name, lambda: {"v": 1})
    for name in reversed(names):
        backward.register(name, lambda: {"v": 1})
    assert list(forward.snapshot()) == sorted(names)
    assert list(forward.snapshot()) == list(backward.snapshot())
