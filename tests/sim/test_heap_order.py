"""The kernel's one heap against a sorted (time, priority, seq) reference.

Every scheduled entry — a deferred call or a triggered event — must be
dispatched in exact (time, priority, insertion sequence) order, also
when dispatched entries schedule more entries (interleaved push/pop) and
when the run is pumped in ``run(until=...)`` slices.  Two wakeups at the
same (time, priority) keep their schedule order, so no drive style can
silently reorder them.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import PRIORITY_NORMAL, PRIORITY_URGENT, Simulator

DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from([0.0, 0.0, 1.0, 10.0, 9.999999999, 1e6]))
PRIORITIES = st.integers(min_value=0, max_value=2)


@st.composite
def programs(draw):
    """Initial entries, each with follow-ups it schedules when dispatched,
    plus the ``until`` deadlines the run is sliced at."""
    spawn = st.lists(st.tuples(DELAYS, PRIORITIES), max_size=3)
    entries = draw(st.lists(st.tuples(DELAYS, PRIORITIES, spawn),
                            min_size=1, max_size=40))
    slices = draw(st.lists(st.floats(min_value=0.0, max_value=120.0,
                                     allow_nan=False), max_size=5))
    return entries, sorted(slices)


def reference_order(entries):
    """Dispatch order of a plain sorted list: always pop the smallest
    (time, priority, seq), scheduling follow-ups as they come due.  An
    entry's label is its sequence number, as in :func:`simulated_order`."""
    pending = [(delay, priority, seq, spawn)
               for seq, (delay, priority, spawn) in enumerate(entries, 1)]
    seq, order = len(entries), []
    while pending:
        pending.sort(key=lambda entry: entry[:3])
        now, _priority, label, spawn = pending.pop(0)
        order.append((label, now))
        for delay, priority in spawn:
            seq += 1
            pending.append((now + delay, priority, seq, ()))
    return order


def simulated_order(entries, slices):
    sim = Simulator()
    order = []
    counter = [0]

    def schedule(delay, priority, spawn):
        counter[0] += 1
        label = counter[0]

        def dispatched(*_):
            order.append((label, sim.now))
            for child_delay, child_priority in spawn:
                schedule(child_delay, child_priority, ())

        if priority == PRIORITY_NORMAL and label % 2:
            sim.defer(delay, dispatched)
        else:
            event = sim.event()
            event.add_callback(dispatched)
            event.succeed(delay=delay, priority=priority)

    for delay, priority, spawn in entries:
        schedule(delay, priority, spawn)
    for until in slices:
        sim.run(until=max(until, sim.now))
    sim.run()
    return order


@given(program=programs())
@settings(max_examples=200, deadline=None)
def test_heap_drains_in_sorted_reference_order(program):
    entries, slices = program
    assert simulated_order(entries, slices) == reference_order(entries)


def test_defer_and_events_interleave_by_seq():
    sim = Simulator()
    order = []
    # Alternate defer callbacks and timeout events, all landing at t=10
    # with PRIORITY_NORMAL: dispatch order is global seq.
    sim.defer(10.0, order.append, "defer-0")
    sim.timeout(10.0, "event-1").add_callback(
        lambda ev: order.append(ev.value))
    sim.defer(10.0, order.append, "defer-2")
    sim.timeout(10.0, "event-3").add_callback(
        lambda ev: order.append(ev.value))
    sim.run()
    assert order == ["defer-0", "event-1", "defer-2", "event-3"]


def test_priority_beats_seq():
    sim = Simulator()
    order = []
    sim.defer(5.0, order.append, "normal")      # NORMAL, earlier seq
    urgent = sim.event()
    urgent.add_callback(lambda ev: order.append(ev.value))
    urgent.succeed("urgent", delay=5.0, priority=PRIORITY_URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def deferred_order(times):
    """Defer one labelled call per timestamp and return the dispatch
    order as (label, time) pairs after a full run."""
    sim = Simulator()
    order = []
    for label, t in enumerate(times):
        sim.defer(t, lambda label=label: order.append((label, sim.now)))
    sim.run()
    return order


def test_near_equal_timestamps_neither_duplicate_nor_reorder():
    # Duplicates and values a rounding error apart from each other.
    times = [30.0, 10.0, 9.999999999, 10.0, 20.0, 10.000000001, 0.0]
    expected = sorted(enumerate(times), key=lambda pair: (pair[1], pair[0]))
    assert deferred_order(times) == expected


def test_sparse_timestamps_drain_in_order():
    # Wide gaps between entries and far-future outliers.
    times = [i * 10_000.0 for i in range(200)] + [1e9, 1e6]
    expected = sorted(enumerate(times), key=lambda pair: pair[1])
    assert deferred_order(times) == expected


def test_run_until_is_inclusive_and_resumable():
    sim = Simulator()
    order = []
    for t in (1.0, 5.0, 15.0):
        sim.defer(t, order.append, t)
    sim.run(until=5.0)
    assert order == [1.0, 5.0]
    assert sim.peek() == 15.0
    sim.run(until=14.999)
    assert order == [1.0, 5.0]
    assert sim.now == 14.999
    sim.run(until=15.0)
    assert order == [1.0, 5.0, 15.0]
    assert sim.peek() == float("inf")


def test_zero_delay_entry_queues_behind_same_time_entries():
    # An entry scheduled for "now" from inside a dispatch runs after the
    # entries already waiting at that (time, priority).
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.defer(0.0, order.append, "spawned")

    sim.defer(5.0, first)
    sim.defer(5.0, order.append, "second")
    sim.timeout(5.0, "third").add_callback(lambda ev: order.append(ev.value))
    sim.run()
    assert order == ["first", "second", "third", "spawned"]


def test_run_batch_slices_match_one_run():
    times = [(i * 7) % 13 + 0.5 for i in range(40)]
    sim = Simulator()
    order = []
    for label, t in enumerate(times):
        sim.defer(t, order.append, label)
    while sim.run_batch(max_events=3):
        pass
    assert [(label, times[label]) for label in order] == deferred_order(times)
