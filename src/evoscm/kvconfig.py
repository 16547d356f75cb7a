"""Key-value config files: ``key = value`` lines, '#' comments.

Values parse as int, then float, then bool ("true"/"false"), then tuple of
numbers ("1.5, 2.5"), falling back to the raw string. Used for optimizer
hyperparameters (--params) and simulator settings (--sim-params).
"""

from __future__ import annotations


def parse_value(text: str):
    raw = text.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in raw:
        return tuple(parse_value(part) for part in raw.split(","))
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = parse_value(value)
    return out


def load_kv(path) -> dict:
    """``parse_kv`` of a UTF-8 file, with or without a BOM; its errors name it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_kv(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_kv(mapping: dict) -> str:
    lines = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, (tuple, list)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
