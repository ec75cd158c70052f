"""The per-device A/B boot-slot state machine.

Real consumer devices survive bad updates with two boot slots: the new
generation is flashed into the *standby* slot, the bootloader flips to
it, and a boot-attempt counter decides whether the trial slot is
health-confirmed or rolled back (Android's boot-control HAL and U-Boot's
bootcount do exactly this).  :class:`SlotState` models that machinery as
an immutable value with pure transitions, so a rollout campaign can fold
events over thousands of simulated devices and the Hypothesis suite can
drive arbitrary event sequences against the two safety invariants:

1. **Never brick**: the active slot always references a stored
   generation — no transition can flip the bootloader to an empty slot.
2. **Never lose known-good**: the slot holding the last health-confirmed
   generation cannot be overwritten until a newer generation has itself
   been health-confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import SlotStateError

#: The two slot names.
SLOT_A = "a"
SLOT_B = "b"


@dataclass(frozen=True, slots=True)
class SlotState:
    """One device's A/B slot table.

    Attributes:
        slot_a / slot_b: Generation fingerprint flashed in each slot
            (``None`` = empty).
        active: Which slot the bootloader selects (``"a"`` or ``"b"``).
        trial: The slot currently on probation (just activated, health
            not yet confirmed), or ``None``.
        boot_attempts: Failed health-check boots of the trial slot.
        known_good: Fingerprint of the last health-confirmed generation.
    """

    slot_a: str | None = None
    slot_b: str | None = None
    active: str = SLOT_A
    trial: str | None = None
    boot_attempts: int = 0
    known_good: str | None = None

    def __post_init__(self) -> None:
        if self.active not in (SLOT_A, SLOT_B):
            raise SlotStateError(f"active slot must be 'a' or 'b', "
                                 f"got {self.active!r}")
        if self.trial not in (None, SLOT_A, SLOT_B):
            raise SlotStateError(f"trial slot must be None, 'a' or 'b', "
                                 f"got {self.trial!r}")
        if self.boot_attempts < 0:
            raise SlotStateError(f"boot_attempts cannot be negative, "
                                 f"got {self.boot_attempts!r}")

    # ------------------------------------------------------------- reading

    @classmethod
    def provision(cls, fingerprint: str) -> "SlotState":
        """Factory state: the shipped image is in slot A and trusted."""
        if not fingerprint:
            raise SlotStateError("cannot provision an empty fingerprint")
        return cls(slot_a=fingerprint, active=SLOT_A,
                   known_good=fingerprint)

    @property
    def standby(self) -> str:
        """The slot the bootloader is *not* selecting."""
        return SLOT_B if self.active == SLOT_A else SLOT_A

    def generation_in(self, slot: str) -> str | None:
        """Fingerprint flashed in ``slot`` (``None`` = empty)."""
        if slot == SLOT_A:
            return self.slot_a
        if slot == SLOT_B:
            return self.slot_b
        raise SlotStateError(f"unknown slot {slot!r}")

    @property
    def active_generation(self) -> str | None:
        return self.generation_in(self.active)

    @property
    def standby_generation(self) -> str | None:
        return self.generation_in(self.standby)

    def _with_slot(self, slot: str, fingerprint: str | None) -> "SlotState":
        if slot == SLOT_A:
            return replace(self, slot_a=fingerprint)
        return replace(self, slot_b=fingerprint)

    # --------------------------------------------------------- transitions

    def stage(self, fingerprint: str) -> "SlotState":
        """Flash a generation into the standby slot.

        Raises:
            SlotStateError: When the flash would overwrite the only copy
                of the known-good generation before a newer one has been
                health-confirmed (invariant 2) — a trial is underway and
                the standby slot is the fallback.
        """
        if not fingerprint:
            raise SlotStateError("cannot stage an empty fingerprint")
        standby_fp = self.standby_generation
        if (self.known_good is not None
                and standby_fp == self.known_good
                and self.active_generation != self.known_good
                and fingerprint != self.known_good):
            raise SlotStateError(
                f"staging {fingerprint[:12]} would overwrite the "
                f"known-good generation {self.known_good[:12]} while the "
                f"active slot is unconfirmed")
        return self._with_slot(self.standby, fingerprint)

    def activate(self) -> "SlotState":
        """Flip the bootloader to the standby slot and start its trial.

        Raises:
            SlotStateError: When the standby slot is empty — flipping to
                it would brick the device (invariant 1).
        """
        if self.standby_generation is None:
            raise SlotStateError(
                f"cannot activate empty slot {self.standby!r}")
        target = self.standby
        return replace(self, active=target, trial=target, boot_attempts=0)

    def boot_ok(self) -> "SlotState":
        """One healthy boot: confirm the trial (if any) as known-good."""
        fingerprint = self.active_generation
        if fingerprint is None:
            raise SlotStateError("active slot is empty; nothing booted")
        if self.trial == self.active:
            return replace(self, trial=None, boot_attempts=0,
                           known_good=fingerprint)
        return replace(self, boot_attempts=0)

    def boot_fail(self) -> "SlotState":
        """One failed health-check boot: bump the attempt counter."""
        return replace(self, boot_attempts=self.boot_attempts + 1)

    def rollback(self) -> "SlotState":
        """Flip back to the standby slot (normally the known-good one).

        Raises:
            SlotStateError: When the standby slot is empty — there is
                nothing to fall back to (invariant 1 again).
        """
        if self.standby_generation is None:
            raise SlotStateError(
                f"cannot roll back: slot {self.standby!r} is empty")
        return replace(self, active=self.standby, trial=None,
                       boot_attempts=0)

    # ------------------------------------------------------------ documents

    def to_dict(self) -> dict[str, Any]:
        return {
            "slot_a": self.slot_a,
            "slot_b": self.slot_b,
            "active": self.active,
            "trial": self.trial,
            "boot_attempts": self.boot_attempts,
            "known_good": self.known_good,
        }

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "SlotState":
        return cls(**document)


def check_slot_invariants(state: SlotState,
                          stored: set[str] | None = None) -> None:
    """Assert the two safety invariants; raise :class:`SlotStateError`.

    The property suite calls this after every transition; campaigns call
    it on final device states with ``stored`` = the store's fingerprints.
    """
    active_fp = state.active_generation
    if active_fp is None:
        raise SlotStateError("invariant: active slot references no "
                             "generation (device is bricked)")
    if stored is not None:
        for slot, fingerprint in (("a", state.slot_a), ("b", state.slot_b)):
            if fingerprint is not None and fingerprint not in stored:
                raise SlotStateError(
                    f"invariant: slot {slot} references unstored "
                    f"generation {fingerprint[:12]}")
    if state.known_good is not None:
        in_a_slot = state.known_good in (state.slot_a, state.slot_b)
        if not in_a_slot:
            raise SlotStateError(
                f"invariant: known-good generation "
                f"{state.known_good[:12]} is in neither slot")
