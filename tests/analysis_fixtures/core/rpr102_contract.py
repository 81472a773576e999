"""Fixture: RPR102 — a contract naming a parameter the kernel lacks."""


def insert(items: list[int], value: int) -> list[int]:
    """Append ``value`` to ``items``.

    Mutates: rows
    """
    items.append(value)
    return items
