"""Workspace files: named inputs for the command-line front end.

A workspace is one JSON document defining groups, actions, lattices,
cocycles, and reduction inputs, cross-referenced by name.  Everything is
resolved and validated at load time, before any command runs; commands
then look objects up by name, falling back to the built-in corpus for
names the file does not define.

Schema (all sections optional; a key repeated in any one object, such as a
name defined twice in a section or a section given twice, is rejected)::

    {
      "format": 1,
      "groups":   {name: {"points": int, "generators": [[int, ...], ...],
                          "labels": [str, ...]?}},
      "actions":  {name: {"actor": group, "target": group,
                          "generator_images": [[int, ...], ...]}},
      "lattices": {name: {"group": group, "rank": int >= 0,
                          "generator_matrices": [matrix, ...]}},
      "cocycles": {name: {"action": action, "values": [int, ...]}},
      "reductions": {name: {"hf": group, "gamma": group, "action": action,
                            "t_hat": lattice, "gtor_hat": lattice,
                            "d": int >= 1?}}
    }

``"format"`` is the integer 1.  A matrix is ``{"rows": int, "cols": int,
"entries": [[int]]}``.  Every int may also be given as a decimal string, an
optional sign followed by ASCII digits, so large values survive JSON
readers with small number types.

Wherever a group is named, in the file or on the command line,
``semidirect:<action>`` names the semidirect product of an action defined
earlier in the file.  A lattice over it lists one generator matrix per
generator of the inner group followed by one per generator of the acting
group.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from .errors import GammalatError, InvalidCocycle, UnknownName, WorkspaceError
from .groups import (
    Cocycle,
    FiniteGroup,
    GroupAction,
    group_from_generators,
    semidirect_product,
    validate_cocycle,
)

if TYPE_CHECKING:
    from .intlinalg import IntMatrix
    from .lattices import GammaLattice
    from .reduction import ReductionInput

__all__ = ["Workspace", "load_workspace", "empty_workspace", "resolve"]


class Workspace:
    """Named objects from one workspace file (or nothing, for builtins only).

    A ``semidirect:<action>`` group is ``semidirect_product(actions[action])``,
    memoized there, so it is not stored here; ``resolve`` finds it wherever
    a group is named.
    """

    def __init__(
        self,
        groups: Optional[dict[str, FiniteGroup]] = None,
        actions: Optional[dict[str, GroupAction]] = None,
        lattices: Optional[dict[str, GammaLattice]] = None,
        cocycles: Optional[dict[str, Cocycle]] = None,
        reductions: Optional[dict[str, ReductionInput]] = None,
    ) -> None:
        self.groups = {} if groups is None else groups
        self.actions = {} if actions is None else actions
        self.lattices = {} if lattices is None else lattices
        self.cocycles = {} if cocycles is None else cocycles
        self.reductions = {} if reductions is None else reductions


def empty_workspace() -> Workspace:
    return Workspace()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WorkspaceError(message)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _as_int(value: object, where: str) -> int:
    """A JSON integer, or a decimal string: an optional sign, then ASCII digits."""
    if isinstance(value, bool):
        raise WorkspaceError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _DECIMAL.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # more digits than int() converts
                pass
        raise WorkspaceError(f"{where}: {value!r} is not a decimal integer")
    raise WorkspaceError(f"{where}: expected an integer, got {type(value).__name__}")


def _as_section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    _require(isinstance(section, dict), f"section {key!r} must be an object")
    for name in section:
        _require(isinstance(name, str) and name, f"section {key!r} has a non-string name")
        _require(
            isinstance(section[name], dict), f"{key}/{name}: definition must be an object"
        )
    return section


@contextmanager
def _defining(where: str) -> Iterator[None]:
    """Prefix ``where``, the definition being built, to any error its
    constructor raises; the error keeps its class."""
    try:
        yield
    except GammalatError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.load``: a repeated key is an error,
    where a plain load would keep the last value silently."""
    out: dict = {}
    for key, value in pairs:
        _require(key not in out, f"repeated key {key!r} in one JSON object")
        out[key] = value
    return out


def _ref(ws: Workspace, section: str, entry: dict, key: str, where: str) -> Any:
    """The object in ``section`` that ``entry[key]``, a string, names; an
    unknown name is an error of the definition ``where``."""
    name = entry[key]
    _require(isinstance(name, str), f"{where}/{key}: expected a name")
    with _defining(where):
        return resolve(ws, section, name)


def _parse_int_list(obj: object, where: str) -> list[int]:
    _require(isinstance(obj, list), f"{where}: expected a list")
    return [_as_int(x, where) for x in obj]  # type: ignore[union-attr]


def _parse_matrix(obj: object, where: str) -> IntMatrix:
    from .intlinalg import IntMatrix

    _require(isinstance(obj, dict), f"{where}: a matrix must be an object")
    assert isinstance(obj, dict)
    for key in ("rows", "cols", "entries"):
        _require(key in obj, f"{where}: matrix is missing {key!r}")
    rows = _as_int(obj["rows"], f"{where}/rows")
    cols = _as_int(obj["cols"], f"{where}/cols")
    _require(rows >= 0 and cols >= 0, f"{where}: matrix dimensions must be >= 0")
    entries = obj["entries"]
    _require(isinstance(entries, list), f"{where}/entries: expected a list of rows")
    parsed = [_parse_int_list(row, f"{where}/entries") for row in entries]
    _require(len(parsed) == rows, f"{where}: expected {rows} rows, got {len(parsed)}")
    for row in parsed:
        _require(len(row) == cols, f"{where}: expected {cols} columns, got {len(row)}")
    return IntMatrix.from_rows(parsed, cols=cols)


def _load_groups(section: dict) -> dict[str, FiniteGroup]:
    out = {}
    for name, entry in section.items():
        where = f"groups/{name}"
        _require("points" in entry and "generators" in entry, f"{where}: needs points and generators")
        points = _as_int(entry["points"], f"{where}/points")
        _require(points >= 1, f"{where}: points must be >= 1")
        gens_obj = entry["generators"]
        _require(isinstance(gens_obj, list) and gens_obj, f"{where}: generators must be a nonempty list")
        gens = [_parse_int_list(g, f"{where}/generators") for g in gens_obj]
        for g in gens:
            _require(len(g) == points, f"{where}: each generator must list {points} images")
        letters = None
        if "labels" in entry:
            labels_obj = entry["labels"]
            _require(
                isinstance(labels_obj, list)
                and len(labels_obj) == len(gens)
                and all(isinstance(s, str) for s in labels_obj),
                f"{where}/labels: expected one string per generator",
            )
            letters = [str(s) for s in labels_obj]
        with _defining(where):
            out[name] = group_from_generators(gens, generator_letters=letters)
    return out


def _load_actions(section: dict, ws: Workspace) -> None:
    for name, entry in section.items():
        where = f"actions/{name}"
        for key in ("actor", "target", "generator_images"):
            _require(key in entry, f"{where}: missing {key!r}")
        actor = _ref(ws, "groups", entry, "actor", where)
        target = _ref(ws, "groups", entry, "target", where)
        images_obj = entry["generator_images"]
        _require(isinstance(images_obj, list), f"{where}/generator_images: expected a list")
        images = [_parse_int_list(img, f"{where}/generator_images") for img in images_obj]
        with _defining(where):
            ws.actions[name] = GroupAction(actor, target, images)


def _load_lattices(section: dict, ws: Workspace) -> None:
    for name, entry in section.items():
        where = f"lattices/{name}"
        for key in ("group", "rank", "generator_matrices"):
            _require(key in entry, f"{where}: missing {key!r}")
        group = _ref(ws, "groups", entry, "group", where)
        rank = _as_int(entry["rank"], f"{where}/rank")
        _require(rank >= 0, f"{where}: rank must be >= 0")
        mats_obj = entry["generator_matrices"]
        _require(isinstance(mats_obj, list), f"{where}/generator_matrices: expected a list")
        mats = [_parse_matrix(mat, f"{where}/generator_matrices") for mat in mats_obj]
        from .lattices import lattice_from_action

        with _defining(where):
            ws.lattices[name] = lattice_from_action(group, rank, mats, name)


def _load_cocycles(section: dict, ws: Workspace) -> None:
    for name, entry in section.items():
        where = f"cocycles/{name}"
        for key in ("action", "values"):
            _require(key in entry, f"{where}: missing {key!r}")
        action = _ref(ws, "actions", entry, "action", where)
        values = _parse_int_list(entry["values"], f"{where}/values")
        try:
            cocycle = Cocycle(action, tuple(values))
        except ValueError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc
        bad = validate_cocycle(cocycle)
        if bad is not None:
            raise InvalidCocycle(f"{where}: cocycle law fails at pair {bad}")
        ws.cocycles[name] = cocycle


def _load_reductions(section: dict, ws: Workspace) -> None:
    for name, entry in section.items():
        where = f"reductions/{name}"
        for key in ("hf", "gamma", "action", "t_hat", "gtor_hat"):
            _require(key in entry, f"{where}: missing {key!r}")
        hf = _ref(ws, "groups", entry, "hf", where)
        gamma = _ref(ws, "groups", entry, "gamma", where)
        action = _ref(ws, "actions", entry, "action", where)
        t_hat = _ref(ws, "lattices", entry, "t_hat", where)
        gtor_hat = _ref(ws, "lattices", entry, "gtor_hat", where)
        d = _as_int(entry["d"], f"{where}/d") if "d" in entry else None
        _require(d is None or d >= 1, f"{where}: d must be >= 1")
        from .reduction import reduction_input

        with _defining(where):
            ws.reductions[name] = reduction_input(hf, gamma, action, t_hat, gtor_hat, d)


def load_workspace(path: str) -> Workspace:
    """Parse and validate a workspace file; raises WorkspaceError/UnknownName
    or, on a bad definition, the underlying validator's error with the
    definition's ``<section>/<name>: `` prefixed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise WorkspaceError(f"cannot read workspace {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise WorkspaceError(f"workspace {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise WorkspaceError(f"workspace {path!r} nests too deeply to parse") from exc
    _require(isinstance(doc, dict), "workspace document must be a JSON object")
    _require("format" in doc, 'workspace is missing the "format" field')
    fmt = doc["format"]
    _require(type(fmt) is int and fmt == 1, f"unsupported workspace format {fmt!r}")
    known = {"format", "groups", "actions", "lattices", "cocycles", "reductions"}
    for key in doc:
        _require(key in known, f"unknown workspace section {key!r}")

    ws = Workspace(groups=_load_groups(_as_section(doc, "groups")))
    _load_actions(_as_section(doc, "actions"), ws)
    _load_lattices(_as_section(doc, "lattices"), ws)
    _load_cocycles(_as_section(doc, "cocycles"), ws)
    _load_reductions(_as_section(doc, "reductions"), ws)
    return ws


def resolve(ws: Workspace, section: str, name: str) -> Any:
    """The object ``name`` names in ``section`` ("groups", "actions",
    "lattices", "cocycles" or "reductions"): the workspace's definition,
    else for a group ``semidirect:<action>``, else a built-in."""
    defined = getattr(ws, section)
    if name in defined:
        return defined[name]
    if section == "groups" and name.startswith("semidirect:"):
        return semidirect_product(resolve(ws, "actions", name[len("semidirect:") :])).group
    from . import corpus

    noun, builtin = {
        "groups": ("group", corpus.builtin_group),
        "actions": ("action", None),
        "lattices": ("lattice", corpus.builtin_lattice),
        "cocycles": ("cocycle", None),
        "reductions": ("reduction input", corpus.builtin_reduction),
    }[section]
    if builtin is None:
        raise UnknownName(f"no {noun} named {name!r} in the workspace")
    try:
        return builtin(name)
    except UnknownName:
        raise UnknownName(f"no {noun} named {name!r} in the workspace or the built-ins") from None
