"""Tests for platform descriptions and presets."""

import pytest

from repro.errors import HardwareError
from repro.hw.memory import DRAMModel
from repro.hw.platform import HardwarePlatform
from repro.hw.presets import galaxy_s6_like, nx300, ue48h6200
from repro.quantities import GiB, MiB
from repro.sim import Simulator


def test_ue48h6200_matches_paper_spec():
    board = ue48h6200()
    assert board.cpu_cores == 4
    assert board.dram.size_bytes == GiB(1)
    assert board.storage.seq_read_bps == MiB(117)
    assert board.storage.rand_read_bps == MiB(37)
    assert board.storage.capacity_bytes == GiB(8)


def test_presets_return_fresh_objects():
    a, b = ue48h6200(), ue48h6200()
    assert a.storage is not b.storage
    assert a.dram is not b.dram


def test_attach_binds_storage():
    sim = Simulator()
    board = ue48h6200().attach(sim)

    def reader():
        yield from board.storage.read(1024)

    sim.spawn(reader(), name="r")
    sim.run()
    assert board.storage.bytes_read == 1024


def test_galaxy_s6_preset_background_figures():
    phone = galaxy_s6_like()
    assert phone.cpu_cores == 8
    assert phone.dram.size_bytes == GiB(3)
    assert phone.storage.seq_read_bps == MiB(300)
    assert phone.decompress_bps == MiB(35)


def test_nx300_is_a_camera():
    camera = nx300()
    assert camera.name == "NX300"
    assert camera.storage.name == "eMMC-camera"
    assert camera.cpu_cores == 2


def test_platform_validation():
    with pytest.raises(HardwareError):
        HardwarePlatform(name="bad", cpu_cores=0, dram=DRAMModel(size_bytes=GiB(1)),
                         storage=ue48h6200().storage)
