"""Tests for external kernel module loading."""

import pytest

from repro.errors import KernelError
from repro.hw.presets import emmc_ue48h6200
from repro.kernel.modules import SYSCALLS_PER_LOAD, KernelModule, ModuleLoader
from repro.quantities import KiB, msec
from repro.sim import Simulator


def test_load_accounts_syscalls_and_bytes():
    sim = Simulator()
    storage = emmc_ue48h6200().attach(sim)
    loader = ModuleLoader(storage)
    module = KernelModule("tuner_drv", size_bytes=KiB(64))

    def work():
        yield from loader.load(sim, module)

    sim.spawn(work(), name="kmod")
    sim.run()
    assert loader.loaded == {"tuner_drv"}
    assert loader.syscalls_issued == SYSCALLS_PER_LOAD
    assert loader.bytes_loaded == KiB(64)


def test_load_is_idempotent():
    sim = Simulator()
    storage = emmc_ue48h6200().attach(sim)
    loader = ModuleLoader(storage)
    module = KernelModule("m", size_bytes=KiB(64))

    def work():
        yield from loader.load(sim, module)
        t_after_first = sim.now
        yield from loader.load(sim, module)
        assert sim.now == t_after_first

    sim.spawn(work(), name="kmod")
    sim.run()
    assert loader.syscalls_issued == SYSCALLS_PER_LOAD


def test_load_all_is_sequential():
    sim = Simulator()
    storage = emmc_ue48h6200().attach(sim)
    loader = ModuleLoader(storage)
    modules = [KernelModule(f"m{n}", size_bytes=KiB(128)) for n in range(10)]

    def work():
        for module in modules:
            yield from loader.load(sim, module)

    sim.spawn(work(), name="kmod")
    sim.run()
    assert len(loader.loaded) == 10
    # 10 x 128 KiB random reads at 37 MiB/s ~= 33 ms of I/O alone.
    assert sim.now > msec(30)


def test_hw_settle_adds_wall_time_not_cpu():
    sim = Simulator()
    storage = emmc_ue48h6200().attach(sim)
    loader = ModuleLoader(storage)
    module = KernelModule("slow_hw", size_bytes=KiB(16), hw_settle_ns=msec(50))

    def work():
        yield from loader.load(sim, module)

    process = sim.spawn(work(), name="kmod")
    sim.run()
    assert sim.now > msec(50)
    assert process.cpu_time_ns < msec(5)


def test_invalid_module_rejected():
    with pytest.raises(KernelError):
        KernelModule("bad", size_bytes=0)
    with pytest.raises(KernelError):
        KernelModule("bad", link_cpu_ns=-1)
