"""Loading code descriptions and symbol vectors from files.

Two interchangeable formats are accepted for code descriptions: a flat
key/value text file and a JSON document carrying the same fields.

    q: 5
    t: 5
    k: 4
    seed: 7            # optional, used by --random message generation
    class: r=2 delta=3 m=1
    class: r=3 delta=2 m=1

    {"q": 5, "t": 5, "k": 4, "seed": 7,
     "classes": [{"r": 2, "delta": 3, "m": 1}, {"r": 3, "delta": 2, "m": 1}]}

Every number, symbol digits included, must be an integer; in JSON a float,
string, boolean or null in its place is an error.

Symbols (extension field elements) serialize as base-q digit lists with the
constant coordinate first, so a message or codeword file is a JSON array of
such lists.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .construction import LocalityClass, LocalitySpec
from .fields import ExtElem, ExtField


class SpecFileError(ValueError):
    """Unparseable or incomplete code description file."""


def _parse_int(value: str, line: int, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SpecFileError(f"line {line}: field '{name}' must be an integer, got {value!r}") from None


def parse_spec_text(text: str) -> tuple[LocalitySpec, int | None]:
    scalars: dict[str, int] = {}
    classes: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecFileError(f"line {line_no}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "class":
            entries: dict[str, int] = {}
            for token in value.split():
                if "=" not in token:
                    raise SpecFileError(
                        f"line {line_no}: class entries look like 'r=2 delta=3 m=1', got {token!r}"
                    )
                name, _, num = token.partition("=")
                entries[name.strip()] = _parse_int(num.strip(), line_no, name.strip())
            for need in ("r", "delta", "m"):
                if need not in entries:
                    raise SpecFileError(f"line {line_no}: class is missing '{need}'")
            classes.append((entries["r"], entries["delta"], entries["m"]))
        elif key in ("q", "t", "k", "seed"):
            scalars[key] = _parse_int(value, line_no, key)
        else:
            raise SpecFileError(f"line {line_no}: unknown key {key!r}")
    for need in ("q", "t", "k"):
        if need not in scalars:
            raise SpecFileError(f"missing required field '{need}'")
    if not classes:
        raise SpecFileError("at least one 'class:' line is required")
    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(r, d, m) for r, d, m in classes),
        k=scalars["k"],
        q=scalars["q"],
        t=scalars["t"],
    )
    return spec, scalars.get("seed")


def _json_int(value, where: str) -> int:
    """A JSON integer; floats, strings and booleans (bool is an int in
    Python) are refused."""
    if type(value) is not int:
        raise SpecFileError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def parse_spec_json(text: str) -> tuple[LocalitySpec, int | None]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFileError("JSON description must be an object")
    for need in ("q", "t", "k", "classes"):
        if need not in doc:
            raise SpecFileError(f"missing required field '{need}'")
    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        raise SpecFileError("field 'classes' must be a non-empty array")
    classes = []
    for idx, entry in enumerate(raw_classes, 1):
        if not isinstance(entry, dict):
            raise SpecFileError(f"class {idx}: must be an object with r, delta, m")
        for need in ("r", "delta", "m"):
            if need not in entry:
                raise SpecFileError(f"class {idx}: missing '{need}'")
        r, delta, m = (_json_int(entry[name], f"class {idx}: field '{name}'") for name in ("r", "delta", "m"))
        classes.append(LocalityClass.from_groups(r, delta, m))
    q, t, k = (_json_int(doc[name], f"field '{name}'") for name in ("q", "t", "k"))
    seed = _json_int(doc["seed"], "field 'seed'") if "seed" in doc else None
    return LocalitySpec(classes=tuple(classes), k=k, q=q, t=t), seed


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def load_spec_file(path: str | Path) -> tuple[LocalitySpec, int | None]:
    """The description in the file and its seed; a parse error names the file."""
    text = _read_text(path)
    parse = parse_spec_json if text.lstrip().startswith("{") else parse_spec_text
    try:
        return parse(text)
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def spec_digest(spec: LocalitySpec) -> str:
    """Short stable digest of the code description, for report headers."""
    doc = {
        "q": spec.q,
        "t": spec.t,
        "k": spec.k,
        "classes": [[c.r, c.delta, c.n] for c in spec.classes],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def spec_summary(spec: LocalitySpec) -> str:
    classes = ";".join(f"(r={c.r},d={c.delta},n={c.n})" for c in spec.classes)
    return f"q={spec.q} t={spec.t} k={spec.k} classes={classes}"


def dump_symbols(symbols) -> str:
    """JSON array of digit lists, constant coordinate first."""
    return json.dumps([list(s) for s in symbols], separators=(",", ":"))


def load_symbols(path: str | Path, field: ExtField, expected: int) -> list[ExtElem]:
    try:
        doc = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError(f"invalid symbol file {path}: {exc}") from None
    if not isinstance(doc, list) or len(doc) != expected:
        raise SpecFileError(f"symbol file {path} must hold exactly {expected} digit lists")
    out = []
    for idx, digits in enumerate(doc):
        if not isinstance(digits, list) or len(digits) != field.t:
            raise SpecFileError(f"symbol {idx}: expected {field.t} digits")
        out.append(field.element([_json_int(v, f"symbol {idx}: digit {j}") for j, v in enumerate(digits)]))
    return out
