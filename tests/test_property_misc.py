"""Property-based tests across modules: counting, serialization, DES
determinism, dataflow fuzz."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ci.ho_basis import ho_states_up_to, minimal_quanta
from repro.ci.mscheme import SpeciesCounter
from repro.datacutter import (
    END_OF_STREAM,
    DataBuffer,
    DistributionPolicy,
    Filter,
    Layout,
    ThreadedRuntime,
)
from repro.sim import Environment, FlowNetwork, Link
from repro.spmv.csr import CSRBlock, matvec_into
from repro.spmv.csrfile import deserialize_csr, serialize_csr
from repro.util.rng import spawn


# ---------------------------------------------------------------------------
# M-scheme counting vs brute force over random parameters
# ---------------------------------------------------------------------------

@given(
    particles=st.integers(1, 3),
    extra_quanta=st.integers(0, 2),
)
@settings(max_examples=15, deadline=None)
def test_species_counter_totals_match_combinatorics(particles, extra_quanta):
    """Summing the DP grid over all (q, m) must equal C(#states, particles)
    restricted to q <= max_quanta — verified by direct enumeration."""
    max_quanta = minimal_quanta(particles) + extra_quanta
    counter = SpeciesCounter(particles, max_quanta)
    states = ho_states_up_to(max_quanta)
    brute = 0
    for combo in itertools.combinations(states, particles):
        if sum(s.quanta for s in combo) <= max_quanta:
            brute += 1
    total = int(counter.counts_matrix().sum())
    assert total == brute


# ---------------------------------------------------------------------------
# CSR serialization round-trip over random matrices
# ---------------------------------------------------------------------------

@st.composite
def csr_blocks(draw):
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(1, 12))
    rows = []
    indptr = [0]
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                             max_size=ncols))
        cols.sort()
        rows.extend(cols)
        indptr.append(len(rows))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=len(rows), max_size=len(rows)))
    return CSRBlock(
        nrows=nrows, ncols=ncols,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(rows, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
    )


@given(csr_blocks())
@settings(max_examples=100, deadline=None)
def test_csr_serialize_round_trip(block):
    back = deserialize_csr(serialize_csr(block))
    assert back.shape == block.shape
    np.testing.assert_array_equal(back.indptr, block.indptr)
    np.testing.assert_array_equal(back.indices, block.indices)
    np.testing.assert_array_equal(back.values, block.values)


# ---------------------------------------------------------------------------
# The in-place kernel against SciPy's own product, bit for bit
# ---------------------------------------------------------------------------

@given(block=csr_blocks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_in_place_kernel_equals_scipy_product_bit_for_bit(block, data):
    """Empty rows, empty blocks (``nrows`` 0, or no stored entry) and an
    output buffer with something in it: ``matvec_into`` leaves in ``out``
    the bytes ``a @ x`` returns, and nothing of what ``out`` held."""
    floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
    x = np.array(data.draw(st.lists(floats, min_size=block.ncols,
                                    max_size=block.ncols)), dtype=np.float64)
    out = np.array(data.draw(st.lists(floats, min_size=block.nrows,
                                      max_size=block.nrows)), dtype=np.float64)
    a = block.to_scipy()
    want = a @ x
    assert matvec_into(a, x, out) is out
    assert out.tobytes() == want.tobytes()
    # ... and CSRBlock.matvec is that kernel over the block's cached form
    dirty = np.full(block.nrows, np.nan)
    assert block.matvec(x, out=dirty).tobytes() == want.tobytes()
    assert block.matvec(x).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# DES determinism: same seed -> identical completion schedule
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 1000), n_flows=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_flow_network_schedule_is_deterministic(seed, n_flows):
    def schedule():
        env = Environment()
        net = FlowNetwork(env)
        shared = Link("shared", 10.0)
        rng = spawn(seed, "flows")
        log = []

        def go(i, delay, size):
            yield env.timeout(delay)
            yield net.transfer([shared], size)
            log.append((i, env.now))

        for i in range(n_flows):
            env.process(go(i, float(rng.uniform(0, 5)),
                           float(rng.uniform(1, 100))))
        env.run()
        return log

    assert schedule() == schedule()


# ---------------------------------------------------------------------------
# DataCutter fuzz: random pipelines must conserve items
# ---------------------------------------------------------------------------

class _Src(Filter):
    outputs = ("out",)

    def __init__(self, items):
        self.items = items

    def process(self, ctx):
        for x in self.items:
            ctx.write("out", DataBuffer(x, {"key": x % 7}))


class _Pass(Filter):
    inputs = ("in",)
    outputs = ("out",)

    def process(self, ctx):
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            ctx.write("out", buf)


class _Sink(Filter):
    inputs = ("in",)

    def __init__(self, out):
        self.out = out

    def process(self, ctx):
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            self.out.append(buf.payload)


@given(
    n_items=st.integers(0, 60),
    stage_instances=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    capacity=st.integers(1, 8),
    policy=st.sampled_from([DistributionPolicy.ROUND_ROBIN,
                            DistributionPolicy.HASH]),
)
@settings(max_examples=25, deadline=None)
def test_random_pipelines_conserve_items(n_items, stage_instances, capacity,
                                         policy):
    sink: list = []
    layout = Layout("fuzz")
    layout.add_filter("src", lambda: _Src(list(range(n_items))))
    prev = "src"
    for si, inst in enumerate(stage_instances):
        name = f"s{si}"
        layout.add_filter(name, _Pass, instances=inst, replicable=True)
        layout.connect(prev, "out", name, "in", capacity=capacity,
                       policy=policy, hash_key="key" if
                       policy is DistributionPolicy.HASH else None)
        prev = name
    layout.add_filter("sink", lambda: _Sink(sink))
    layout.connect(prev, "out", "sink", "in", capacity=capacity)
    ThreadedRuntime(layout).run(timeout=60)
    assert sorted(sink) == list(range(n_items))
