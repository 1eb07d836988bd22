"""The tracer restores what it patched and accounts nested time."""

import multiprocessing
import sys
import time
import types

import pytest

from tracer import Tracer


class Worker:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def _module(name):
    module = types.ModuleType(name)
    sys.modules[name] = module
    return module


@pytest.fixture()
def fake_package():
    """``fakepkg.core`` defines ``inner``; ``fakepkg.user`` imports it."""
    core = _module("fakepkg.core")

    def inner(seconds):
        time.sleep(seconds)
        return "inner"

    def outer(seconds):
        time.sleep(seconds)
        return user.inner(seconds * 2)

    core.inner = inner
    user = _module("fakepkg.user")
    user.inner = inner
    user.outer = outer
    yield core, user
    for name in ("fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name, None)


def _originals(core, user):
    return (
        core.inner,
        user.inner,
        user.outer,
        Worker.__dict__["work"],
    )


def _install(core, user, then=None):
    def install(tracer):
        tracer.patch_everywhere(core.inner, "inner", prefix="fakepkg")
        tracer.patch(user, "outer", "outer")
        tracer.patch(Worker, "work", "work")
        if then is not None:
            then()

    return install


def test_restores_every_attribute_when_the_traced_code_raises(fake_package):
    core, user = fake_package
    before = _originals(core, user)
    tracer = Tracer(["inner", "outer", "work"])
    with pytest.raises(RuntimeError):
        with tracer.installed(_install(core, user)), tracer.recording():
            assert user.inner is not before[1]
            assert Worker.__dict__["work"] is not before[3]
            raise RuntimeError("boom")
    assert _originals(core, user) == before
    assert tracer.patched_count == 0


def test_restores_when_installation_itself_fails(fake_package):
    core, user = fake_package
    before = _originals(core, user)
    tracer = Tracer(["inner", "outer", "work"])

    def fail():
        raise KeyError("half installed")

    with pytest.raises(KeyError):
        with tracer.installed(_install(core, user, then=fail)):
            pass
    assert _originals(core, user) == before


def test_restores_when_a_wrapped_call_raises(fake_package):
    core, user = fake_package
    before = _originals(core, user)
    tracer = Tracer(["inner", "outer", "work"])
    with tracer.installed(_install(core, user)), tracer.recording():
        with pytest.raises(TypeError):
            Worker().work("not a number")
        # The failed call was still timed, and the stack unwound.
        assert tracer.snapshot()["work"].calls == 1
        user.outer(0.001)
        assert tracer.snapshot()["outer"].calls == 1
    assert _originals(core, user) == before


def test_patch_refuses_inherited_methods():
    class Child(Worker):
        pass

    tracer = Tracer(["work"])
    with pytest.raises(AttributeError):
        tracer.patch(Child, "work", "work")
    assert tracer.patched_count == 0


def test_nested_calls_split_inclusive_and_self_time(fake_package):
    core, user = fake_package
    tracer = Tracer(["inner", "outer", "work"])
    with tracer.installed(_install(core, user)), tracer.recording():
        assert user.outer(0.02) == "inner"
    stats = tracer.snapshot()
    outer, inner = stats["outer"], stats["inner"]
    assert inner.calls == outer.calls == 1
    assert inner.incl_s >= 0.04
    assert outer.incl_s >= inner.incl_s + 0.02
    assert outer.self_s == pytest.approx(outer.incl_s - inner.incl_s)
    assert inner.self_s == pytest.approx(inner.incl_s)
    assert stats["work"].calls == 0


def test_a_layer_nested_in_itself_counts_inclusive_time_once():
    tracer = Tracer(["work"])

    class Twice:
        def outer(self):
            time.sleep(0.01)
            return self.inner()

        def inner(self):
            time.sleep(0.01)

    def install(t):
        t.patch(Twice, "outer", "work")
        t.patch(Twice, "inner", "work")

    with tracer.installed(install), tracer.recording():
        Twice().outer()
    stat = tracer.snapshot()["work"]
    assert stat.calls == 2
    assert stat.incl_s == pytest.approx(stat.self_s)
    assert 0.02 <= stat.incl_s < 0.2


def test_wrappers_record_only_while_recording(fake_package):
    core, user = fake_package
    tracer = Tracer(["inner", "outer", "work"])
    with tracer.installed(_install(core, user)):
        user.outer(0.001)
        assert tracer.snapshot()["outer"].calls == 0
        with tracer.recording():
            user.outer(0.001)
        user.outer(0.001)
    assert tracer.snapshot()["outer"].calls == 1


def test_units_and_dynamic_layers():
    tracer = Tracer(["even", "odd"])

    class Counter:
        def count(self, n):
            return list(range(n))

    def install(t):
        t.patch(
            Counter,
            "count",
            "even",
            units=lambda args, kwargs, result: (len(result), 1.0),
            layer_of=lambda args, kwargs: "even" if args[1] % 2 == 0 else "odd",
        )

    with tracer.installed(install), tracer.recording():
        Counter().count(4)
        Counter().count(3)
        Counter().count(2)
    stats = tracer.snapshot()
    assert (stats["even"].calls, stats["even"].units_a) == (2, 6)
    assert (stats["odd"].calls, stats["odd"].units_b) == (1, 1)


def _child(seconds):
    Worker().work(seconds)


def test_calls_in_a_forked_child_are_counted_as_remote():
    tracer = Tracer(["work"])
    with tracer.installed(lambda t: t.patch(Worker, "work", "work")):
        with tracer.recording():
            process = multiprocessing.get_context("fork").Process(
                target=_child, args=(0.02,)
            )
            process.start()
            process.join(timeout=30)
    assert process.exitcode == 0
    stat = tracer.snapshot()["work"]
    assert stat.calls == 1
    assert stat.remote_ctrl_s == pytest.approx(stat.incl_s)
    assert stat.remote_ctrl_s >= 0.02
    assert stat.remote_wire_s == 0.0
