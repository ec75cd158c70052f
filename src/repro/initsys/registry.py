"""The unit registry: every unit the init manager knows about."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import UnitError, UnitNotFoundError
from repro.initsys.unitfile import parse_unit_file, render_unit_file
from repro.initsys.units import Unit


class UnitRegistry:
    """A named collection of units with reference validation."""

    def __init__(self, units: Iterable[Unit] = ()):
        self._units: dict[str, Unit] = {}
        for unit in units:
            self.add(unit)

    def add(self, unit: Unit) -> None:
        """Register a unit.

        Raises:
            UnitError: On duplicate names.
        """
        if unit.name in self._units:
            raise UnitError(f"duplicate unit {unit.name!r}")
        self._units[unit.name] = unit

    def replace(self, unit: Unit) -> None:
        """Register or overwrite a unit (service updates, §2.5)."""
        self._units[unit.name] = unit

    def remove(self, name: str) -> None:
        """Remove a unit.

        Raises:
            UnitNotFoundError: If absent.
        """
        if name not in self._units:
            raise UnitNotFoundError(name)
        del self._units[name]

    def get(self, name: str) -> Unit:
        """Look up a unit.

        Raises:
            UnitNotFoundError: If absent.
        """
        try:
            return self._units[name]
        except KeyError:
            raise UnitNotFoundError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._units

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[Unit]:
        return iter(self._units.values())

    @property
    def names(self) -> list[str]:
        """All unit names, in registration order."""
        return list(self._units)

    def load_unit_text(self, text: str, name: str) -> Unit:
        """Parse unit-file text and register the resulting unit."""
        unit = Unit.from_parsed(parse_unit_file(text, name=name))
        self.add(unit)
        return unit

    def dump_unit_text(self, name: str) -> str:
        """Render a registered unit back to unit-file text."""
        return render_unit_file(self.get(name).to_parsed())

    def apply_install_sections(self) -> None:
        """Resolve ``WantedBy=``/``RequiredBy=`` into reverse dependencies.

        Equivalent to ``systemctl enable``: for each unit U with
        ``WantedBy=T``, add U to T's ``wants`` (respectively ``requires``).
        Unknown targets are ignored, matching systemd's behaviour for
        not-installed targets.
        """
        for unit in self:
            for target_name in unit.wanted_by:
                if target_name in self:
                    target = self.get(target_name)
                    if unit.name not in target.wants:
                        target.wants.append(unit.name)
            for target_name in unit.required_by:
                if target_name in self:
                    target = self.get(target_name)
                    if unit.name not in target.requires:
                        target.requires.append(unit.name)

    def dangling_references(self) -> dict[str, list[str]]:
        """References to units that do not exist, keyed by referrer.

        Ordering references (``Before``/``After``) to missing units are
        legal in systemd (they are ignored), but requirement references are
        reported so the Service Analyzer can flag them.
        """
        missing: dict[str, list[str]] = {}
        for unit in self:
            bad = [dep for dep in (*unit.requires, *unit.wants, *unit.conflicts)
                   if dep not in self]
            if bad:
                missing[unit.name] = bad
        return missing
