"""The unit-file text format (systemd.unit syntax, Listing 1).

Unit files are INI-like::

    [Unit]
    Description=Summarized explanation of Myapp.service
    Before=socket.service

    [Service]
    Type=oneshot
    ExecStart=/usr/bin/myapp-service-daemon

    [Install]
    WantedBy=multi-user.target

Rules implemented (matching systemd):

* ``#`` and ``;`` start comment lines,
* a trailing backslash continues a value on the next line,
* repeated assignments to a *list* key accumulate; an empty assignment
  (``Requires=``) resets the accumulated list,
* repeated assignments to a scalar key keep the last value,
* section and key names are case-sensitive.

The parser records how many lines and bytes it consumed so the Pre-parser
(§3.3) can charge realistic boot-time costs for parsing a whole service
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnitParseError

#: Keys whose values are whitespace-separated lists that accumulate.
LIST_KEYS = frozenset({
    "Requires", "Wants", "Before", "After", "Conflicts", "WantedBy",
    "RequiredBy", "OnFailure", "ProvidesPaths", "WaitsForPaths",
    "IpcTargets",
})


@dataclass(slots=True)
class ParsedUnitFile:
    """The raw parse result of one unit file.

    Attributes:
        name: Unit name (e.g. ``"dbus.service"``), from the filename.
        sections: Mapping of section name to key/value mapping; list keys
            map to lists of strings, scalar keys to strings.
        line_count: Number of physical lines parsed.
        byte_count: Number of bytes parsed.
    """

    name: str
    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    line_count: int = 0
    byte_count: int = 0

    def get(self, section: str, key: str, default: object = None) -> object:
        """Value of ``key`` in ``section``, or ``default``."""
        return self.sections.get(section, {}).get(key, default)

    def get_list(self, section: str, key: str) -> list[str]:
        """List value of ``key`` in ``section`` (empty list if absent)."""
        value = self.get(section, key)
        if value is None:
            return []
        if isinstance(value, list):
            return list(value)
        raise UnitParseError(f"key {key} in [{section}] is not a list key", self.name)


class UnitFileParser:
    """Parses unit-file text into :class:`ParsedUnitFile` records."""

    def parse(self, text: str, name: str = "<string>") -> ParsedUnitFile:
        """Parse one unit file.

        Args:
            text: Unit file contents.
            name: Unit name, normally the filename (``foo.service``).

        Raises:
            UnitParseError: On malformed sections or assignments.
        """
        result = ParsedUnitFile(name=name, byte_count=len(text.encode()))
        current_section: str | None = None
        pending_key: str | None = None
        pending_value: list[str] = []
        lines = text.splitlines()
        result.line_count = len(lines)

        def commit_pending(lineno: int) -> None:
            nonlocal pending_key, pending_value
            if pending_key is None:
                return
            assert current_section is not None
            value = " ".join(pending_value)
            self._assign(result, current_section, pending_key, value, name, lineno)
            pending_key = None
            pending_value = []

        for lineno, raw_line in enumerate(lines, start=1):
            if pending_key is not None:
                # Continuation body of a backslash-extended value.
                stripped = raw_line.rstrip()
                if stripped.endswith("\\"):
                    pending_value.append(stripped[:-1].strip())
                else:
                    pending_value.append(stripped.strip())
                    commit_pending(lineno)
                continue
            line = raw_line.strip()
            if not line or line.startswith("#") or line.startswith(";"):
                continue
            if line.startswith("["):
                if not line.endswith("]") or len(line) < 3:
                    raise UnitParseError(f"malformed section header: {line!r}",
                                         name, lineno)
                current_section = line[1:-1]
                result.sections.setdefault(current_section, {})
                continue
            if "=" not in line:
                raise UnitParseError(f"expected 'Key=Value', got {line!r}",
                                     name, lineno)
            if current_section is None:
                raise UnitParseError(f"assignment outside any section: {line!r}",
                                     name, lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if value.endswith("\\"):
                pending_key = key
                pending_value = [value[:-1].strip()]
                continue
            self._assign(result, current_section, key, value, name, lineno)

        if pending_key is not None:
            raise UnitParseError(f"dangling continuation for key {pending_key!r}",
                                 name, result.line_count)
        return result

    def _assign(self, result: ParsedUnitFile, section: str, key: str,
                value: str, name: str, lineno: int) -> None:
        if not key:
            raise UnitParseError("empty key", name, lineno)
        table = result.sections.setdefault(section, {})
        if key in LIST_KEYS:
            if value == "":
                table[key] = []  # systemd: empty assignment resets the list
            else:
                existing = table.setdefault(key, [])
                assert isinstance(existing, list)
                existing.extend(value.split())
        else:
            table[key] = value


def parse_unit_file(text: str, name: str = "<string>") -> ParsedUnitFile:
    """Convenience wrapper around :class:`UnitFileParser`."""
    return UnitFileParser().parse(text, name=name)


def render_unit_file(parsed: ParsedUnitFile) -> str:
    """Serialize a :class:`ParsedUnitFile` back to unit-file text.

    Round-trips with :func:`parse_unit_file` (comments are not preserved —
    they are not part of the parse result).
    """
    chunks: list[str] = []
    for section, table in parsed.sections.items():
        chunks.append(f"[{section}]")
        for key, value in table.items():
            if isinstance(value, list):
                if value:
                    chunks.append(f"{key}={' '.join(value)}")
                else:
                    chunks.append(f"{key}=")
            else:
                chunks.append(f"{key}={value}")
        chunks.append("")
    return "\n".join(chunks)
