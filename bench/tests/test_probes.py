import types

import pytest

from probes import BenchError, Patches, PhaseClock, Tracer, self_times, span_totals, tape_size
from workloads import WORKLOADS


def test_self_time_subtracts_nested_children():
    spans = [
        ["step", 0.0, 10.0, -1],
        ["backward", 1.0, 7.0, 0],
        ["conv.dx", 2.0, 4.0, 1],
        ["conv.dw", 4.5, 5.0, 1],
        ["sgd", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([10 - 6 - 1, 6 - 2 - 0.5, 2.0, 0.5, 1.0])


def test_self_time_clips_and_merges_children():
    # Children overlapping each other or sticking out of the parent count once
    # and only inside the parent.
    spans = [["p", 0.0, 4.0, -1], ["a", -1.0, 2.0, 0], ["b", 1.0, 3.0, 0], ["c", 3.5, 9.0, 0]]
    assert self_times(spans)[0] == pytest.approx(4.0 - 3.0 - 0.5)


def test_span_totals_groups_by_name():
    spans = [["f", 0.0, 2.0, -1], ["g", 0.5, 1.0, 0], ["f", 3.0, 4.0, -1]]
    totals = span_totals(spans)
    assert totals["f"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert totals["g"]["calls"] == 1


def test_tracer_records_parents_and_rejects_out_of_order_close():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    with pytest.raises(BenchError):
        tracer.close(outer)
    tracer.close(inner)
    tracer.close(outer)
    (o_name, o_start, o_end, o_parent), (i_name, i_start, i_end, i_parent) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    assert not tracer.open_names["outer"] and not tracer.open_names["inner"]


def test_phase_clock_splits_steps_evals_and_setup():
    clock = PhaseClock()
    clock.events = [("gen_end", 1.0, 0), ("step_end", 3.0, 0), ("step_end", 4.0, 0),
                    ("eval_start", 4.5, 10), ("eval_end", 6.5, 10), ("step_end", 7.0, 0)]
    p = clock.phases(0.0, 8.0)
    assert p["steps_s"] == [2.0, 1.0, 0.5]
    assert p["eval_s"] == 2.0 and p["eval_samples"] == 10
    assert p["setup_s"] == pytest.approx(8.0 - 3.5 - 2.0)


def test_patch_of_missing_name_fails_loudly():
    mod = types.ModuleType("dropgraph.fake")
    with pytest.raises(BenchError, match="no such name"):
        Patches().wrap(mod, "renamed_away", lambda fn: fn)


def test_usage_check_flags_unused_and_unexpected_sites():
    mod = types.ModuleType("dropgraph.fake")
    mod.a = lambda: 1
    mod.b = lambda: 2
    patches = Patches()
    patches.wrap(mod, "a", lambda fn: fn)
    patches.wrap(mod, "b", lambda fn: fn)
    mod.a()
    patches.check_usage(frozenset({"fake.b"}))
    with pytest.raises(BenchError, match="fake.b was never called"):
        patches.check_usage(frozenset())
    with pytest.raises(BenchError, match="must not reach"):
        patches.check_usage(frozenset({"fake.a", "fake.b"}))
    patches.restore()
    assert mod.a() == 1 and not hasattr(mod.a, "__wrapped__")


def test_every_declared_unused_site_is_patched(dg):
    patches = Patches()
    Tracer().install(dg, patches)
    patches.restore()
    for w in WORKLOADS.values():
        assert w.unused <= set(patches.calls), w.name


def test_install_and_restore_leave_the_program_unchanged(dg):
    before = (dg.train.SGD.step, dg.tensor.Tensor.backward, dg._conv.conv_forward,
              dg.backbones.sample_block_mask)
    for probe in (Tracer(), PhaseClock()):
        patches = Patches()
        probe.install(dg, patches)
        patches.restore()
    assert before == (dg.train.SGD.step, dg.tensor.Tensor.backward, dg._conv.conv_forward,
                      dg.backbones.sample_block_mask)


def test_tape_size_counts_each_node_once(dg):
    import numpy as np

    Tensor, matmul = dg.tensor.Tensor, dg.tensor.matmul
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    h = matmul(w, w)
    loss = (h + h).sum()
    # loss <- sum <- add <- (h, h) <- matmul <- (w, w): 4 distinct nodes
    assert tape_size(loss) == (4, 1)


def test_renamed_parameter_fails_loudly():
    from probes import _args

    def f(x, rho=0.1):
        return x

    assert _args(f, "rho")((1,), {}) == (0.1,)
    with pytest.raises(BenchError, match="no parameter"):
        _args(f, "p")
