"""Workspace files: named inputs for the command-line front end.

A workspace is one JSON document defining groups, actions, lattices,
cocycles, and reduction inputs, cross-referenced by name.  Loading a file
checks each definition's structure and builds nothing: JSON shapes, names,
references, decimal integers, point counts, ranks, matrix shapes and
``d``.  A definition is built (group closure, action and lattice law
checks, cocycle law) on its first ``resolve`` and kept; a reference builds
what it names first.  So a command builds only the definitions it names
and what they reference, and a definition that fails a law check fails
only the commands that reach it.  ``build_all`` builds every definition in
load order (section order, then file order), as ``check`` does.  Names
the file does not define fall back to the built-in corpus.

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
earlier in the file, so references never form a cycle.  A lattice over it
lists one generator matrix per generator of the inner group followed by
one per generator of the acting group.
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
    from .lattices import GammaLattice
    from .reduction import ReductionInput

__all__ = ["Workspace", "load_workspace", "empty_workspace", "resolve", "build_all"]


class Workspace:
    """The definitions of one workspace file (none, for builtins only).

    ``definitions[section][name]`` holds the checked arguments of a
    definition's builder, its references still by name, in file order;
    ``built[section][name]`` the object once ``resolve`` has built it.  A
    ``semidirect:<action>`` group is ``semidirect_product`` of the action,
    memoized there, so it is not kept here.
    """

    def __init__(self) -> None:
        self.definitions: dict[str, dict[str, tuple]] = {s: {} for s in _SECTIONS}
        self.built: dict[str, dict[str, Any]] = {s: {} for s in _SECTIONS}


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
    """Prefix ``where``, the definition being checked or built, to any error
    raised inside; the error keeps its class.  An error that already names
    its definition, one that ``where`` references, passes through as is."""
    try:
        yield
    except GammalatError as exc:
        if hasattr(exc, "definition"):
            raise
        error = type(exc)(f"{where}: {exc}")
        error.definition = where  # type: ignore[attr-defined]
        raise error from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.load``: a repeated key is an error,
    where a plain load would keep the last value silently."""
    out: dict = {}
    for key, value in pairs:
        _require(key not in out, f"repeated key {key!r} in one JSON object")
        out[key] = value
    return out


_NOUNS = {
    "groups": "group",
    "actions": "action",
    "lattices": "lattice",
    "cocycles": "cocycle",
    "reductions": "reduction input",
}


def _known(ws: Workspace, section: str, name: str) -> None:
    """Raise the UnknownName that ``resolve`` would for a name nothing
    defines, building nothing: the workspace's definitions come first, then
    for a group ``semidirect:<action>``, then the built-ins."""
    if name in ws.definitions[section]:
        return
    if section == "groups" and name.startswith("semidirect:"):
        return _known(ws, "actions", name[len("semidirect:") :])
    from .corpus import BUILTIN_NAMES

    if name not in BUILTIN_NAMES.get(section, ()):
        where = "the workspace or the built-ins" if section in BUILTIN_NAMES else "the workspace"
        raise UnknownName(f"no {_NOUNS[section]} named {name!r} in {where}")


def _ref(ws: Workspace, section: str, entry: dict, key: str, where: str) -> str:
    """``entry[key]``, a string naming an object in ``section`` among the
    definitions loaded so far; an unknown name is an error of the
    definition ``where``."""
    name = entry[key]
    _require(isinstance(name, str), f"{where}/{key}: expected a name")
    with _defining(where):
        _known(ws, section, name)
    return name


def _parse_int_list(obj: object, where: str) -> list[int]:
    _require(isinstance(obj, list), f"{where}: expected a list")
    return [_as_int(x, where) for x in obj]  # type: ignore[union-attr]


def _parse_matrix(obj: object, where: str) -> tuple[list[list[int]], int]:
    """A matrix's rows and column count, checked against its declared shape."""
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
    return parsed, cols


# One loader per section checks an entry's structure and returns its
# builder's arguments; the builder, run by ``resolve`` under the
# definition's prefix, resolves the references and constructs the object.


def _load_group(ws: Workspace, name: str, entry: dict) -> tuple:
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
    return gens, letters


def _build_group(ws: Workspace, gens: list, letters: Optional[list]) -> FiniteGroup:
    return group_from_generators(gens, generator_letters=letters)


def _load_action(ws: Workspace, name: str, entry: dict) -> tuple:
    where = f"actions/{name}"
    for key in ("actor", "target", "generator_images"):
        _require(key in entry, f"{where}: missing {key!r}")
    actor = _ref(ws, "groups", entry, "actor", where)
    target = _ref(ws, "groups", entry, "target", where)
    images_obj = entry["generator_images"]
    _require(isinstance(images_obj, list), f"{where}/generator_images: expected a list")
    images = [_parse_int_list(img, f"{where}/generator_images") for img in images_obj]
    return actor, target, images


def _build_action(ws: Workspace, actor: str, target: str, images: list) -> GroupAction:
    return GroupAction(resolve(ws, "groups", actor), resolve(ws, "groups", target), images)


def _load_lattice(ws: Workspace, name: str, entry: dict) -> tuple:
    where = f"lattices/{name}"
    for key in ("group", "rank", "generator_matrices"):
        _require(key in entry, f"{where}: missing {key!r}")
    group = _ref(ws, "groups", entry, "group", where)
    rank = _as_int(entry["rank"], f"{where}/rank")
    _require(rank >= 0, f"{where}: rank must be >= 0")
    mats_obj = entry["generator_matrices"]
    _require(isinstance(mats_obj, list), f"{where}/generator_matrices: expected a list")
    mats = [_parse_matrix(mat, f"{where}/generator_matrices") for mat in mats_obj]
    return group, rank, mats, name


def _build_lattice(ws: Workspace, group: str, rank: int, mats: list, name: str) -> GammaLattice:
    from .intlinalg import IntMatrix
    from .lattices import lattice_from_action

    matrices = [IntMatrix.from_rows(rows, cols=cols) for rows, cols in mats]
    return lattice_from_action(resolve(ws, "groups", group), rank, matrices, name)


def _load_cocycle(ws: Workspace, name: str, entry: dict) -> tuple:
    where = f"cocycles/{name}"
    for key in ("action", "values"):
        _require(key in entry, f"{where}: missing {key!r}")
    action = _ref(ws, "actions", entry, "action", where)
    return action, tuple(_parse_int_list(entry["values"], f"{where}/values"))


def _build_cocycle(ws: Workspace, action: str, values: tuple) -> Cocycle:
    base = resolve(ws, "actions", action)
    try:
        cocycle = Cocycle(base, values)
    except ValueError as exc:
        raise WorkspaceError(str(exc)) from exc
    bad = validate_cocycle(cocycle)
    if bad is not None:
        raise InvalidCocycle(f"cocycle law fails at pair {bad}")
    return cocycle


def _load_reduction(ws: Workspace, name: str, entry: dict) -> tuple:
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
    return hf, gamma, action, t_hat, gtor_hat, d


def _build_reduction(
    ws: Workspace, hf: str, gamma: str, action: str, t_hat: str, gtor_hat: str, d: Optional[int]
) -> ReductionInput:
    from .reduction import reduction_input

    return reduction_input(
        resolve(ws, "groups", hf),
        resolve(ws, "groups", gamma),
        resolve(ws, "actions", action),
        resolve(ws, "lattices", t_hat),
        resolve(ws, "lattices", gtor_hat),
        d,
    )


# section -> (loader, builder)
_SECTIONS = {
    "groups": (_load_group, _build_group),
    "actions": (_load_action, _build_action),
    "lattices": (_load_lattice, _build_lattice),
    "cocycles": (_load_cocycle, _build_cocycle),
    "reductions": (_load_reduction, _build_reduction),
}


def load_workspace(path: str) -> Workspace:
    """Parse a workspace file and check the structure of every definition,
    in section order, then file order; build nothing.  Raises
    WorkspaceError, or UnknownName for a reference to nothing loaded before
    it, with the definition's ``<section>/<name>: `` prefixed."""
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
    known = {"format", *_SECTIONS}
    for key in doc:
        _require(key in known, f"unknown workspace section {key!r}")

    ws = Workspace()
    for section, (load, _) in _SECTIONS.items():
        for name, entry in _as_section(doc, section).items():
            ws.definitions[section][name] = load(ws, name, entry)
    return ws


def resolve(ws: Workspace, section: str, name: str) -> Any:
    """The object ``name`` names in ``section`` ("groups", "actions",
    "lattices", "cocycles" or "reductions"): the workspace's definition,
    built on first use, else for a group ``semidirect:<action>``, else a
    built-in.  A definition's build error carries its ``<section>/<name>: ``
    prefix and keeps its class."""
    built, definitions = ws.built[section], ws.definitions[section]
    if name in built:
        return built[name]
    if name in definitions:
        _, build = _SECTIONS[section]
        with _defining(f"{section}/{name}"):
            built[name] = build(ws, *definitions[name])
        return built[name]
    if section == "groups" and name.startswith("semidirect:"):
        return semidirect_product(resolve(ws, "actions", name[len("semidirect:") :])).group
    _known(ws, section, name)
    from . import corpus

    builtin = {
        "groups": corpus.builtin_group,
        "lattices": corpus.builtin_lattice,
        "reductions": corpus.builtin_reduction,
    }[section]
    return builtin(name)


def build_all(ws: Workspace) -> dict[str, dict[str, Any]]:
    """Build every definition in load order, so a workspace with several bad
    definitions reports the first; returns ``built``."""
    for section, definitions in ws.definitions.items():
        for name in definitions:
            resolve(ws, section, name)
    return ws.built
