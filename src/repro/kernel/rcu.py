"""The RCU synchronization subsystem: conventional vs boosted.

``synchronize_rcu`` waits for a grace period — until every CPU has passed
a quiescent state — and is called with extreme frequency during boot
(driver registration, namespace setup, security hooks).  The paper models
two implementations:

* **Algorithm 1 (conventional)**: the ticket-spinlock path.  A caller that
  finds the grace-period machinery busy *spins*, occupying a CPU core, and
  waits a full normal grace period.  Fine after boot (0-1 concurrent
  callers), terrible during boot.
* **Algorithm 2 (RCU Booster)**: memory barriers + a blocking mutex +
  forced quiescent states ("force all RCU readers onto task lists; do
  synchronized scheduling").  Waiters sleep — releasing their core to other
  boot work — and the forced-quiescent pass expedites the grace period, at
  the price of extra per-operation CPU (barriers, context switches).

The subsystem exposes a simulated *sysfs* knob
(:meth:`RCUSubsystem.write_sysfs`), which is how the user-space RCU Booster
Control of the Boot-up Engine enables boosting at init start and disables
it at boot completion (§3.2).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.quantities import msec, usec
from repro.sim.process import Compute, Timeout
from repro.sim.sync import Mutex, SpinLock

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator

#: Normal grace-period length (a few jiffies; HZ=100 class embedded
#: kernel).
GRACE_PERIOD_NS = msec(12)
#: Grace period under the boosted forced quiescent-state pass.
EXPEDITED_GRACE_PERIOD_NS = msec(1.5)
#: Per-call CPU cost of Algorithm 1 (RCU head init, wait-queue
#: manipulation).
CONVENTIONAL_OP_CPU_NS = usec(30)
#: Per-call CPU cost of Algorithm 2 (memory barriers, snapshot comparison,
#: forcing readers onto task lists): deliberately larger, this is the §4.3
#: trade-off.
BOOSTED_OP_CPU_NS = usec(120)
#: CPU burned per spin iteration in Algorithm 1.
SPIN_SLICE_NS = 500_000


class RCUMode(enum.Enum):
    """Active ``synchronize_rcu`` implementation."""

    CONVENTIONAL = "conventional"  # Algorithm 1: ticket spinlock, spin wait
    BOOSTED = "boosted"  # Algorithm 2: mutex + expedited grace period


class RCUSubsystem:
    """Kernel RCU state shared by every simulated ``synchronize_rcu`` call.

    A grace period is a fixed wait of :data:`GRACE_PERIOD_NS`, or of
    :data:`EXPEDITED_GRACE_PERIOD_NS` when boosted (jiffy-based quiescent
    detection, calibrated).  The module constants are the whole cost
    model, and :mod:`repro.analysis.predict` reads the same names.

    Args:
        engine: Owning simulator.
    """

    SYSFS_PATH = "/sys/kernel/rcu_boost"

    def __init__(self, engine: "Simulator"):
        self._engine = engine
        self.mode = RCUMode.CONVENTIONAL
        self._wait_lock = SpinLock(engine, name="rcu.wait_lock",
                                   spin_slice_ns=SPIN_SLICE_NS)
        self._boost_mutex = Mutex(engine, name="rcu.boost_mutex")
        # Statistics for the evaluation harness.
        self.sync_count = 0
        self.total_sync_wall_ns = 0
        self.mode_switches = 0

    # ------------------------------------------------------------- controls

    def set_mode(self, mode: RCUMode) -> None:
        """Switch the active algorithm (kernel-internal interface)."""
        if mode is not self.mode:
            self.mode = mode
            self.mode_switches += 1

    def write_sysfs(self, value: str) -> None:
        """The user-space control interface (§3.2, via sysfs [37]).

        Accepts ``"1"``/``"0"`` exactly as a real sysfs boolean attribute.

        Raises:
            KernelError: On any other value.
        """
        if value == "1":
            self.set_mode(RCUMode.BOOSTED)
        elif value == "0":
            self.set_mode(RCUMode.CONVENTIONAL)
        else:
            raise KernelError(f"invalid write to {self.SYSFS_PATH}: {value!r}")

    @property
    def spin_time_ns(self) -> int:
        """Total CPU burned spinning in Algorithm 1 so far."""
        return self._wait_lock.spin_time_ns

    # ------------------------------------------------------------ operation

    def synchronize_rcu(self) -> "ProcessGenerator":
        """Generator: one ``synchronize_rcu`` call under the current mode.

        The mode is sampled at call entry, as in the real implementation
        where the boosted path is patched in behind a static branch.
        """
        start = self._engine.now
        self.sync_count += 1
        if self.mode is RCUMode.BOOSTED:
            yield from self._synchronize_boosted()
        else:
            yield from self._synchronize_conventional()
        self.total_sync_wall_ns += self._engine.now - start

    def _synchronize_conventional(self) -> "ProcessGenerator":
        # Algorithm 1: init RCU head, join the wait queue, spin on the
        # wait-lock (burning a core) until the grace period elapses.
        yield Compute(CONVENTIONAL_OP_CPU_NS)
        yield from self._wait_lock.acquire()
        try:
            yield Timeout(GRACE_PERIOD_NS)
        finally:
            self._wait_lock.release()

    def _synchronize_boosted(self) -> "ProcessGenerator":
        # Algorithm 2: barriers + snapshot, blocking mutex (sleep, not
        # spin), forced quiescent states expedite the grace period.
        yield Compute(BOOSTED_OP_CPU_NS)
        yield from self._boost_mutex.acquire()
        try:
            yield Timeout(EXPEDITED_GRACE_PERIOD_NS)
        finally:
            self._boost_mutex.release()

    def __repr__(self) -> str:
        return (f"RCUSubsystem(mode={self.mode.value}, syncs={self.sync_count}, "
                f"spin_ms={self.spin_time_ns / 1e6:.1f})")
