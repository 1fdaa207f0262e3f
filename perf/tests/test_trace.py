import threading

import pytest

from perf import layers, trace


def totals_of(rows):
    return trace.reduce_self_times(trace.SpanTable.from_rows(rows))


def test_self_time_is_duration_minus_direct_children():
    # op [0,10] > a [1,4] > b [2,3]; op > c [4,9]: a and c touch end-to-start.
    totals = totals_of([
        ("op", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("b", 2.0, 3.0, 1, 0, 0),
        ("c", 4.0, 9.0, 0, 0, 0),
    ])
    assert totals["op"].busy_s == pytest.approx(2.0)  # 10 - 3 - 5
    assert totals["a"].busy_s == pytest.approx(2.0)   # 3 - 1
    assert totals["b"].busy_s == pytest.approx(1.0)
    assert totals["c"].busy_s == pytest.approx(5.0)
    assert sum(t.busy_s for t in totals.values()) == pytest.approx(10.0)


def test_a_callable_nested_in_itself_is_not_counted_twice():
    # resolve [0,10] > validate [2,8] > resolve [3,6]
    totals = totals_of([
        ("resolve", 0.0, 10.0, -1, 0, 0),
        ("validate", 2.0, 8.0, 0, 0, 0),
        ("resolve", 3.0, 6.0, 1, 0, 0),
    ])
    assert totals["resolve"].calls == 2
    assert totals["resolve"].busy_s == pytest.approx(4.0 + 3.0)
    assert totals["validate"].busy_s == pytest.approx(3.0)
    assert sum(t.busy_s for t in totals.values()) == pytest.approx(10.0)


def test_pool_self_time_is_what_no_lane_was_busy_for():
    # Main thread: pass [0,10] > net.lane_run [1,9].  Two lanes take
    # turns; each keeps its resolve span open while parked in lane_wait.
    rows = [
        ("pass", 0.0, 10.0, -1, -1, 0),
        ("net.lane_run", 1.0, 9.0, 0, -1, 0),
        # lane A: busy 1.5-3, parked 3-6, busy 6-7
        ("resolve", 1.5, 7.0, 1, 0, 1),
        ("net.lane_wait", 3.0, 6.0, 2, 0, 1),
        # lane B: busy 3.2-5.8 while A is parked
        ("resolve", 3.2, 5.8, 1, 1, 2),
    ]
    totals = totals_of(rows)
    assert totals["resolve"].busy_s == pytest.approx((5.5 - 3.0) + 2.6)
    assert totals["net.lane_wait"].wait_s == pytest.approx(3.0)
    assert totals["net.lane_wait"].busy_s == 0.0
    # 8 s of pool minus 5.1 s of lane work: hand-off and scheduling.
    assert totals["net.lane_run"].busy_s == pytest.approx(8.0 - 5.1)
    busy = sum(t.busy_s for t in totals.values())
    assert busy == pytest.approx(trace.root_time(trace.SpanTable.from_rows(rows)))


class _Layer:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return self.outer(depth - 1) if depth else 0

    @classmethod
    def build(cls):
        return cls()

    @staticmethod
    def lookup(key):
        return key or None


def test_wrappers_record_nested_spans_and_come_off_again():
    tracer = trace.Tracer()
    originals = {attr: _Layer.__dict__[attr] for attr in ("outer", "inner", "build", "lookup")}
    tracer.patch_method(_Layer, "outer", "layer.outer", op_root=True)
    tracer.patch_method(_Layer, "inner", "layer.inner")
    tracer.patch_method(_Layer, "build", "layer.build")
    tracer.patch_method(_Layer, "lookup", "layer.lookup", hits=True)
    layer = _Layer.build()
    assert layer.outer(2) == 3
    assert _Layer.lookup("") is None and _Layer.lookup("x") == "x"
    with tracer.paused():
        layer.outer(1)  # the benchmark's own work leaves no span
    table = tracer.drain()
    totals = trace.reduce_self_times(table)
    assert totals["layer.outer"].calls == 3 and totals["layer.inner"].calls == 3
    assert totals["layer.build"].calls == 1 and totals["layer.lookup"].calls == 2
    assert tracer.hits["layer.lookup"] == 1
    # Every span under the first outer() shares its op id; parents are rows.
    rows = list(table.rows())
    nested = [row for row in rows if row[0] in ("layer.outer", "layer.inner")]
    assert {row[4] for row in nested} == {0}
    assert [row[3] for row in nested] == [-1, 1, 2, 3, 4, 5]
    assert sum(t.busy_s for t in totals.values()) == pytest.approx(trace.root_time(table))

    tracer.uninstall()
    assert all(_Layer.__dict__[attr] is original for attr, original in originals.items())
    assert _Layer().outer(2) == 3
    assert len(tracer.drain()) == 0


def test_spans_opened_by_other_threads_hang_under_the_pool_span():
    tracer = trace.Tracer()
    work = tracer.wrap(lambda: None, "resolve")

    def pool():
        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

    tracer.wrap(pool, "net.lane_run", pool=True)()
    work()  # after the pool: a root span again
    rows = list(tracer.drain().rows())
    pool_row = [i for i, row in enumerate(rows) if row[0] == "net.lane_run"]
    parents = [row[3] for row in rows if row[0] == "resolve"]
    assert sorted(parents) == [-1] + pool_row * 3


def test_layers_install_on_the_real_code_and_uninstall_cleanly():
    from repro.dns.message import Message
    from repro.dnssec import keys, validator

    before = (Message.__dict__["from_wire"], Message.__dict__["to_wire"],
              validator.verify_signature, keys.verify_signature)
    tracer = trace.Tracer()
    layers.install(tracer)
    try:
        assert validator.verify_signature is keys.verify_signature is not before[2]
        wire = Message.make_query("example.com.").to_wire()
        assert Message.from_wire(wire).question[0].name == Message.from_wire(wire).question[0].name
        totals = trace.reduce_self_times(tracer.drain())
        assert totals["dns.to_wire"].calls == 1 and totals["dns.from_wire"].calls == 2
    finally:
        tracer.uninstall()
    after = (Message.__dict__["from_wire"], Message.__dict__["to_wire"],
             validator.verify_signature, keys.verify_signature)
    assert all(a is b for a, b in zip(before, after))
    # A second, untraced, pass in the same process records zero spans.
    Message.from_wire(Message.make_query("example.com.").to_wire())
    assert len(tracer.drain()) == 0 and tracer.span_count() == 0


def test_every_per_layer_metric_is_derived():
    facts = dict.fromkeys(
        ("bytes", "timeouts", "infra_hits", "infra_misses", "coalesced", "stale_served",
         "cache_get_hits", "obs_calls"), 0)
    facts.update(passes=1, virtual_ops_per_s=1.0, traced_ops_per_s=1.0, untraced_ops_per_s=2.0)
    values = layers.derive({}, {"dns.to_wire": trace.LayerTotals(4, 2e-6, 0.0)}, 2, facts)
    assert list(values) == [name for name, *_ in layers.PER_LAYER]
    assert values["dns.to_wire_calls_per_op"] == 2.0
    assert values["dns.to_wire_self_us_per_op"] == pytest.approx(1.0)
    assert values["trace.overhead_share"] == 0.5
