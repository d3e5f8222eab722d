"""Count the NumPy calls one SoA network step makes per simulated cycle.

At mesh sizes up to 16x16 a SoA cycle's cost is mostly NumPy's fixed
per-call dispatch, so the call count is the kernels' cost model.  Every
ndarray attribute of a loaded solo network (flood micro-workload of
``bench_micro_performance.py``) is re-viewed as a counting subclass.
While the network steps (traffic ingress is not counted), each ufunc
(operators and ``ufunc.at`` included), array function, index or
assignment, and array method call on such an array, or on an array derived
from it, counts once.

Scalar element accesses — an index or assignment at one integer position,
and ``item()`` — are counted apart from array calls: each costs about a
tenth of a vector call's dispatch, so counting them as calls would make a
scalar kernel path (the small-set injection pass) read as dispatch-bound.

    PYTHONPATH=src python benchmarks/count_step_calls.py --rows 8
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np

from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

#: [counting on, array calls counted, scalar accesses counted]
STATE = [False, 0, 0]


def _count() -> None:
    if STATE[0]:
        STATE[1] += 1


def _count_index(index) -> None:
    """Count an index or assignment: a scalar access at one integer position."""
    if STATE[0]:
        STATE[2 if isinstance(index, (int, np.integer)) else 1] += 1


def _count_scalar() -> None:
    if STATE[0]:
        STATE[2] += 1


def _plain(value):
    """``value`` with every counting array (also inside tuples/lists) unwrapped."""
    if isinstance(value, Counted):
        return value.view(np.ndarray)
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    return value


def _counted(value):
    """``value`` with every plain array (also inside a tuple) re-wrapped."""
    if isinstance(value, np.ndarray):
        return value.view(Counted)
    if isinstance(value, tuple):
        return tuple(_counted(item) for item in value)
    return value


def _counting_method(name: str):
    def method(self, *args, **kwargs):
        _count()
        return _counted(getattr(_plain(self), name)(*_plain(args), **kwargs))

    return method


class Counted(np.ndarray):
    """An ndarray view that counts every NumPy call made on it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _count()
        if "out" in kwargs:
            kwargs["out"] = _plain(kwargs["out"])
        return _counted(getattr(ufunc, method)(*_plain(inputs), **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        _count()
        plain_kwargs = {key: _plain(value) for key, value in kwargs.items()}
        return _counted(func(*_plain(args), **plain_kwargs))

    def __getitem__(self, index):
        _count_index(index)
        return _counted(_plain(self)[_plain(index)])

    def __setitem__(self, index, value):
        _count_index(index)
        _plain(self)[_plain(index)] = _plain(value)

    def item(self, *args):
        _count_scalar()
        return _plain(self).item(*args)

    take = _counting_method("take")
    nonzero = _counting_method("nonzero")
    any = _counting_method("any")
    all = _counting_method("all")
    astype = _counting_method("astype")
    sum = _counting_method("sum")


def calls_per_cycle(rows: int, cycles: int) -> tuple[float, float]:
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=0, seed=0, backend="soa")
    )
    topology = simulator.topology
    simulator.add_source(UniformRandomTraffic(topology, injection_rate=0.02, seed=0))
    flood = AttackScenario(attackers=(rows * rows - 1,), victim=0, fir=0.8)
    simulator.add_source(flood.build_source(topology, seed=1))
    simulator.run(64)
    net = simulator.network
    for name, value in list(vars(net).items()):
        if isinstance(value, np.ndarray):
            setattr(net, name, value.view(Counted))
    for column in (net._pkt_dest, net._pkt_injected):
        column._data = column._data.view(Counted)
    net._tables = dataclasses.replace(
        net._tables,
        **{
            field.name: getattr(net._tables, field.name).view(Counted)
            for field in dataclasses.fields(net._tables)
            if isinstance(getattr(net._tables, field.name), np.ndarray)
        },
    )
    step = net.step

    def counted_step(cycle: int) -> None:
        STATE[0] = True
        try:
            step(cycle)
        finally:
            STATE[0] = False

    net.step = counted_step
    simulator.run(cycles)
    return STATE[1] / cycles, STATE[2] / cycles


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cycles", type=int, default=400)
    args = parser.parse_args()
    calls, scalars = calls_per_cycle(args.rows, args.cycles)
    print(
        f"{args.rows}x{args.rows}: {calls:.1f} NumPy calls and "
        f"{scalars:.1f} scalar element accesses per cycle"
    )


if __name__ == "__main__":
    main()
