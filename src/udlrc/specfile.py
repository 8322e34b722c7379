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
string, boolean or null in its place is an error.  So is an unknown or a
repeated key, at the top level or in a class, in either format.  Text keys
and class entry names are read in lower case (Q: 5, R=2); JSON keys are not.

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


def _fields(pairs, required: tuple[str, ...], optional: tuple[str, ...] = (), where: str = "") -> dict:
    """The (key, value) pairs as a dict: each key known and given once, and
    every required key given; where prefixes an error."""
    doc, known = {}, {*required, *optional}
    for key, value in pairs:
        if key not in known:
            raise SpecFileError(f"{where}unknown key {key!r}")
        if key in doc:
            raise SpecFileError(f"{where}repeated key {key!r}")
        doc[key] = value
    for need in required:
        if need not in doc:
            raise SpecFileError(f"{where}missing required field '{need}'")
    return doc


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
        key, value, where = key.strip().lower(), value.strip(), f"line {line_no}: "
        if key == "class":
            entries = []
            for token in value.split():
                if "=" not in token:
                    raise SpecFileError(f"{where}class entries look like 'r=2 delta=3 m=1', got {token!r}")
                name, _, num = token.partition("=")
                name = name.lower()
                entries.append((name, _parse_int(num, line_no, name)))
            c = _fields(entries, ("r", "delta", "m"), where=where)
            classes.append((c["r"], c["delta"], c["m"]))
        else:  # the new key must be known and not given yet
            _fields([*scalars.items(), (key, None)], (), ("q", "t", "k", "seed"), where)
            scalars[key] = _parse_int(value, line_no, key)
    doc = _fields(scalars.items(), ("q", "t", "k"), ("seed",))
    if not classes:
        raise SpecFileError("at least one 'class:' line is required")
    spec = LocalitySpec(
        classes=tuple(LocalityClass.from_groups(r, d, m) for r, d, m in classes),
        k=doc["k"],
        q=doc["q"],
        t=doc["t"],
    )
    return spec, doc.get("seed")


def _json_int(value, where: str) -> int:
    """A JSON integer; floats, strings and booleans (bool is an int in
    Python) are refused."""
    if type(value) is not int:
        raise SpecFileError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _digit(value, q: int, where: str) -> int:
    """A JSON integer in [0, q): a base-q digit as written, never reduced."""
    digit = _json_int(value, where)
    if not 0 <= digit < q:
        raise SpecFileError(f"{where} must be in [0, {q}), got {digit}")
    return digit


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error."""
    return _fields(pairs, (), tuple(key for key, _ in pairs))


def parse_spec_json(text: str) -> tuple[LocalitySpec, int | None]:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFileError("JSON description must be an object")
    _fields(doc.items(), ("q", "t", "k", "classes"), ("seed",))
    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        raise SpecFileError("field 'classes' must be a non-empty array")
    classes = []
    for idx, entry in enumerate(raw_classes, 1):
        if not isinstance(entry, dict):
            raise SpecFileError(f"class {idx}: must be an object with r, delta, m")
        _fields(entry.items(), ("r", "delta", "m"), where=f"class {idx}: ")
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
        out.append(field.element([_digit(v, field.q, f"symbol {idx}: digit {j}") for j, v in enumerate(digits)]))
    return out
