"""Config-file parsing and deterministic report writing for the CLI."""

from __future__ import annotations

import ast
import json
import math
import os
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .errors import UsageError, ValidationError
from .measures import (
    AtomicMeasure,
    DensityBoxMeasure,
    TargetMeasure,
    UniformBallMeasure,
    UniformBoxMeasure,
)

DEFAULT_SEED = 20240801
_REQUIRED = object()  # config_number's default for a key that must be present

# besides numeric literals, the coordinate names and calls np.<ufunc>(...) of
# _DENSITY_UFUNCS, the only syntax a density expression may use
_DENSITY_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Load,
                  ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                  ast.UAdd, ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_DENSITY_UFUNCS = frozenset((
    "abs absolute arccos arcsin arctan arctan2 ceil cos cosh exp expm1 floor hypot log "
    "log10 log1p log2 maximum minimum power sign sin sinh sqrt square tan tanh").split())


def load_json_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # a binary file fails to decode
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return data


def config_number(block: dict, key: str, cast=float, default=_REQUIRED):
    """block[key] converted by ``cast`` (``default`` when given and the key is
    absent; None, unconverted, for an optional key that is absent or null); a
    value that does not convert (a bool, or for int a fraction) is a UsageError naming the key."""
    value = block[key] if default is _REQUIRED else block.get(key, default)
    if value is None and default is None:
        return None
    try:
        return {int: whole, float: real}.get(cast, cast)(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: float(10**400)
        raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}") from None


def whole(value) -> int:
    """int(value), refusing a fraction that int() would drop, a bool and a
    string (JSON "25" is no number): the int cast."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def real(value) -> float:
    """float(value), refusing a bool and a string (JSON true and "1e3" are
    no numbers): the float cast."""
    if isinstance(value, (bool, str)):
        raise ValueError(value)
    return float(value)


def _exactly(kind):
    """The strict cast that passes a value of ``kind`` unchanged and refuses any other."""
    def cast(value):
        if not isinstance(value, kind):
            raise ValueError(value)
        return value
    return cast


flag = _exactly(bool)  # a JSON true or false, where bool() takes any non-empty string


def config_path(block: dict, key: str, base_dir: str) -> str:
    """block[key], a file name relative to the config file's directory
    ``base_dir``, joined to it; a value that is not a string is a UsageError."""
    return os.path.join(base_dir, config_number(block, key, _exactly(str)))


def floats(value):
    """A number, or lists of numbers nested to any depth, as floats: the
    ``config_number`` cast for list-valued keys."""
    return [floats(v) for v in value] if isinstance(value, (list, tuple)) else real(value)


def _read_rows(path):
    """(line number, floats) for each line of a comma-separated file that is
    neither blank nor a '#' comment.  An unreadable, binary or empty file,
    or a cell that is not a number, is one UsageError naming the path (and
    the line)."""
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    try:
                        rows.append((lineno, [float(c) for c in line.split(",")]))
                    except ValueError as exc:
                        raise UsageError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not a text file") from None
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return rows


def load_cloud_csv(path, dim: Optional[int] = None):
    """One point per row, optional trailing weight column (detected against
    the declared dimension)."""
    rows = [cells for _, cells in _read_rows(path)]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise UsageError(f"{path}: rows have inconsistent column counts")
    data = np.asarray(rows)
    if dim is not None and width == dim + 1:
        points, weights = data[:, :dim], data[:, dim]
        weights = weights / weights.sum()
        return points, weights
    return data, None


def _compile_density(expr: str, dim: int):
    """Compile a density expression in x0..x{dim-1} and r after checking
    every node of it against a whitelist, so config input cannot run code."""
    try:
        tree = ast.parse(str(expr), "<density expr>", mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"density expression {expr!r}: {exc.msg}") from exc
    names = {f"x{k}" for k in range(dim)} | {"r"}
    callees = set()  # np.<ufunc> of allowed calls; ast.walk meets a call before them
    for node in ast.walk(tree):
        f = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                and f.attr in _DENSITY_UFUNCS and isinstance(f.value, ast.Name)
                and f.value.id == "np"):
            callees.update((f, f.value))
        elif not (isinstance(node, _DENSITY_NODES) or node in callees
                  or isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            raise ValidationError(f"density expression {expr!r}: "
                                  f"{ast.unparse(node) or type(node).__name__!r} is not allowed")
        elif isinstance(node, ast.Constant):
            try:  # float powers overflow at once where int powers (9**9**9) grow without bound
                node.value = float(node.value)
            except OverflowError:
                raise ValidationError(f"density expression {expr!r}: "
                                      "an integer literal exceeds the float range") from None
    return compile(tree, "<density expr>", "eval")


def measure_from_config(block: dict, base_dir: str = ".") -> TargetMeasure:
    if not isinstance(block, dict) or "type" not in block:
        raise ValidationError("measure block must be a mapping with a 'type' key")
    kind = str(block["type"]).lower()
    if kind == "uniform_box":
        return UniformBoxMeasure(config_number(block, "lo", floats),
                                 config_number(block, "hi", floats))
    if kind == "uniform_ball":
        return UniformBallMeasure(config_number(block, "center", floats),
                                  config_number(block, "radius"),
                                  cells_per_axis=config_number(block, "cells_per_axis", int, None))
    if kind == "cloud":
        dim = config_number(block, "dim", int, None)
        points, weights = load_cloud_csv(config_path(block, "path", base_dir), dim)
        return AtomicMeasure(points, weights)
    if kind == "atoms":
        return AtomicMeasure(config_number(block, "positions", floats),
                             config_number(block, "weights", floats))
    if kind == "density":
        expr = block["expr"]
        lo = np.atleast_1d(config_number(block, "lo", floats))
        code = _compile_density(expr, len(lo))

        def density(points: np.ndarray) -> np.ndarray:
            env = {"np": np, "r": np.linalg.norm(points, axis=1)}
            for k in range(points.shape[1]):
                env[f"x{k}"] = points[:, k]
            try:
                value = eval(code, {"__builtins__": {}}, env)
            except ArithmeticError as exc:
                raise ValidationError(f"density expression {expr!r}: {exc}") from None
            return np.broadcast_to(np.asarray(value, dtype=float), (points.shape[0],))

        return DensityBoxMeasure(density, lo, config_number(block, "hi", floats),
                                 cells_per_axis=config_number(block, "cells_per_axis", int, None),
                                 normalize=config_number(block, "normalize", flag, False))
    raise ValidationError(f"unknown measure type {kind!r}")


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_report(payload: dict, path) -> None:
    """Deterministic JSON: the payload under 'result' is byte-stable across
    reruns; the timestamp lives in a separate metadata field."""
    doc = {
        "result": _sanitize(payload),
        "meta": {"written_at": datetime.now(timezone.utc).isoformat()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
