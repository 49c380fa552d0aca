"""Name-keyed registry with aliases, shared by backends and decoders.

:mod:`repro.backends` and :mod:`repro.decoders` each keep one
:class:`Registry` of their implementations; the public
``register_backend``/``register_decoder`` functions build the entry and
hand it to :meth:`Registry.register`.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

Entry = TypeVar("Entry")


class Registry(Generic[Entry]):
    """Entries under canonical names, plus aliases that resolve to them.

    ``noun`` names an entry in the "shadows a registered ..." error and
    ``label`` in the "unknown ..." one.
    """

    def __init__(self, noun: str, label: str):
        self.noun = noun
        self.label = label
        self._entries: dict[str, Entry] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self, name: str, entry: Entry, aliases: Iterable[str] = ()
    ) -> Entry:
        """Register ``entry`` under ``name`` (plus optional aliases).

        Re-registering a name replaces its entry (tests swap in
        instrumented ones); aliases may not shadow a canonical name.
        """
        aliases = tuple(aliases)
        if self._aliases.get(name, name) != name:
            raise ValueError(
                f"name {name!r} is already an alias for "
                f"{self._aliases[name]!r}"
            )
        for alias in aliases:
            if alias in self._entries:
                raise ValueError(
                    f"alias {alias!r} shadows a registered {self.noun}"
                )
            if self._aliases.get(alias, name) != name:
                raise ValueError(
                    f"alias {alias!r} already points to "
                    f"{self._aliases[alias]!r}"
                )
        self._entries[name] = entry
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def canonical_name(self, name: str) -> str:
        """Resolve a name or alias to its canonical name.

        Raises ``KeyError`` naming the known entries on an unknown name.
        """
        resolved = self._aliases.get(name, name)
        if resolved not in self._entries:
            raise KeyError(
                f"unknown {self.label} {name!r} "
                f"(known: {', '.join(self.choices())})"
            )
        return resolved

    def get(self, name: str) -> Entry:
        """Look up an entry by canonical name or alias."""
        return self._entries[self.canonical_name(name)]

    def available(self) -> tuple[str, ...]:
        """Sorted canonical names of every registered entry."""
        return tuple(sorted(self._entries))

    def choices(self) -> tuple[str, ...]:
        """Canonical names plus aliases (for CLI ``choices=``)."""
        return tuple(sorted(set(self._entries) | set(self._aliases)))
