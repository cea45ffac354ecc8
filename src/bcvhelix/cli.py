"""Command-line front end.

One JSON config document describes one job; flags only pick the config path,
the output directory, and dotted-key overrides, so every run is reproducible
from the config artifact alone.  Identical configs produce byte-identical
CSV/JSON/OBJ outputs.

    bcvhelix <command> --config job.json [--out DIR] [--override key=value ...]

Commands: classify, chart, cmc, minimal, deform, verify, export.
Exit status: 0 iff every requested check passed; 1 on a failed check;
2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bour import BourSeed, NaturalChart, build_chart, gauss_intrinsic
from .cmc import cmc_U, cmc_residual, minimal_U
from .errors import BcvHelixError, ConfigError
from .numerics import ArrayFunction, SmoothFunction, Tolerances, elementwise
from .oracle import MeshGrid, SurfaceChart, first_forms, local_geometry, pair_grids, pair_matrix, sample_mesh
from .spaces import BcvSpace, classify

FORMATS = ("csv", "obj", "json")

# names available to "explicit" profile expressions
_EXPR_NS = {
    name: getattr(math, name)
    for name in (
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
        "tanh", "asinh", "acosh", "atanh", "sqrt", "exp", "log", "pi", "e",
    )
}
_EXPR_NS["abs"] = abs
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_EXPR_UNARYOPS = (ast.UAdd, ast.USub)


def _disallowed(node: ast.AST) -> Optional[ast.AST]:
    """The first node outside the profile-expression grammar, or None: u,
    int/float literals, + - * / **, unary +-, the constants of _EXPR_NS and
    calls of its functions with positional arguments."""
    children: list = []
    if isinstance(node, ast.Constant):
        ok = type(node.value) in (int, float)
    elif isinstance(node, ast.Name):
        ok = node.id == "u" or (node.id in _EXPR_NS and not callable(_EXPR_NS[node.id]))
    elif isinstance(node, ast.BinOp):
        ok, children = isinstance(node.op, _EXPR_BINOPS), [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        ok, children = isinstance(node.op, _EXPR_UNARYOPS), [node.operand]
    elif isinstance(node, ast.Call):
        ok = (
            isinstance(node.func, ast.Name)
            and callable(_EXPR_NS.get(node.func.id))
            and not node.keywords
        )
        children = node.args
    else:
        ok = False
    if not ok:
        return node
    for child in children:
        bad = _disallowed(child)
        if bad is not None:
            return bad
    return None


@dataclass
class JobConfig:
    space: BcvSpace
    mode: str
    seed_family: str
    m: float
    a: float
    H: float
    c: float
    u_range: tuple[float, float]
    u_expr: Optional[str]
    du_expr: Optional[str]
    sweep_values: list[float]
    nu: int
    nt: int
    t_range: tuple[float, float]
    tol: Tolerances
    check_tol: dict
    basename: str
    formats: list[str]
    raw_theta: bool


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        node = node[part]
    return node


def _as_float(value, path: str) -> float:
    # true is no number, and a NaN or infinite parameter or tolerance has no
    # meaning (a NaN difference step would never stop halving)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    number = _as_float(value, path)
    if not number.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(number)


def _as_range(value, path: str) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{path}: need [lo, hi] with lo < hi and a finite width, got {value!r}")
    lo, hi = _as_float(value[0], path), _as_float(value[1], path)
    # a width that overflows to inf gives no finite grid step
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"{path}: need [lo, hi] with lo < hi and a finite width, got {value!r}")
    return lo, hi


# tolerances that are steps or widths; every other tolerance may also be 0
_POSITIVE_TOLERANCES = ("fd_first", "fd_second", "fd_min", "brioschi_step", "bisect")
# the fields parse_config reads, by section ("" the top level; tolerances
# are checked by name): a field no command reads is an error, not ignored
_FIELDS = {
    "": ("mode", "space", "seed", "sweep", "grid", "tolerances", "output"),
    "space": ("kappa", "tau"),
    "seed": ("family", "m", "a", "H", "c", "u_range", "U", "dU"),
    "sweep": ("parameter", "values"),
    "grid": ("nu", "nt", "t_range"),
    "output": ("basename", "formats", "raw_theta"),
}


def parse_config(cfg: dict, mode: str) -> JobConfig:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, fields in _FIELDS.items():
        node = cfg.get(section) if section else cfg
        for key in node if isinstance(node, dict) else ():
            if key not in fields:
                raise ConfigError(f"{section}{'.' if section else ''}{key}: unknown field")
    cfg_mode = _get(cfg, "mode")
    if cfg_mode is not None and cfg_mode != mode:
        raise ConfigError(f"mode: config says {cfg_mode!r} but command is {mode!r}")
    kappa = _as_float(_get(cfg, "space.kappa", required=True), "space.kappa")
    tau = _as_float(_get(cfg, "space.tau", required=True), "space.tau")
    space = BcvSpace(kappa, tau)

    family = _get(cfg, "seed.family", "explicit")
    if family not in ("cmc-case", "minimal-case", "explicit"):
        raise ConfigError(f"seed.family: unknown family {family!r}")
    m = _as_float(_get(cfg, "seed.m", 1.0), "seed.m")
    if m == 0:
        raise ConfigError("seed.m: must be nonzero")
    a = _as_float(_get(cfg, "seed.a", 0.0), "seed.a")
    H = _as_float(_get(cfg, "seed.H", 0.0), "seed.H")
    c = _as_float(_get(cfg, "seed.c", 0.0), "seed.c")
    u_range = _as_range(_get(cfg, "seed.u_range", [-2.0, 2.0]), "seed.u_range")
    u_expr = _get(cfg, "seed.U")
    du_expr = _get(cfg, "seed.dU")
    if family == "explicit" and mode != "classify" and not u_expr:
        raise ConfigError("seed.U: explicit seeds need a U(u) expression")

    sweep_values = _get(cfg, "sweep.values", [])
    sweep_param = _get(cfg, "sweep.parameter", "a")
    if sweep_param != "a":
        raise ConfigError(f"sweep.parameter: only 'a' is supported, got {sweep_param!r}")
    if not isinstance(sweep_values, list):
        raise ConfigError(f"sweep.values: expected a list of numbers, got {sweep_values!r}")
    sweep_values = [_as_float(v, "sweep.values") for v in sweep_values]
    tags: dict = {}
    for value in sweep_values:
        # each frame's files are named by the value's %g tag
        tag = f"{value:g}"
        if tag in tags:
            raise ConfigError(
                f"sweep.values: {tags[tag]!r} and {value!r} share the frame tag a={tag}"
            )
        tags[tag] = value

    nu = _as_int(_get(cfg, "grid.nu", 41), "grid.nu")
    nt = _as_int(_get(cfg, "grid.nt", 41), "grid.nt")
    if nu < 2 or nt < 2:
        raise ConfigError("grid.nu and grid.nt must be >= 2")
    t_range = _as_range(_get(cfg, "grid.t_range", [-math.pi, math.pi]), "grid.t_range")

    tol_over = _get(cfg, "tolerances", {}) or {}
    if not isinstance(tol_over, dict):
        raise ConfigError("tolerances: must be an object")
    tol_fields = {f for f in Tolerances.__dataclass_fields__}
    tol_kwargs = {}
    check_tol = {
        "cmc_residual": 1e-8,
        "h_ext": 1e-4,
        "first_form": 1e-6,
        "isometry": 1e-6,
    }
    for key, value in tol_over.items():
        if key not in tol_fields and key not in check_tol:
            raise ConfigError(f"tolerances.{key}: unknown tolerance")
        number = _as_float(value, f"tolerances.{key}")
        # a zero step never fits a stencil, and a zero bisection width never ends
        if key in _POSITIVE_TOLERANCES and not number > 0:
            raise ConfigError(f"tolerances.{key}: must be > 0, got {value!r}")
        if not number >= 0:
            raise ConfigError(f"tolerances.{key}: must be >= 0, got {value!r}")
        (tol_kwargs if key in tol_fields else check_tol)[key] = number
    tol = Tolerances(**tol_kwargs)

    basename = _get(cfg, "output.basename", "surface")
    # every output file is <out>/<basename>...: the name must stay in <out>,
    # and no file name holds a NUL
    forbidden = {"/", os.sep, os.altsep, "\0"} - {None}
    if (
        not isinstance(basename, str)
        or basename in ("", ".", "..")
        or any(char in basename for char in forbidden)
    ):
        raise ConfigError(
            f"output.basename: expected a file name without a path separator or NUL, got {basename!r}"
        )
    formats = _get(cfg, "output.formats", ["json"])
    if not isinstance(formats, list) or not all(f in FORMATS for f in formats):
        raise ConfigError(f"output.formats: must be a subset of {FORMATS}, got {formats!r}")
    raw_theta = _get(cfg, "output.raw_theta", False)
    if not isinstance(raw_theta, bool):
        raise ConfigError(f"output.raw_theta: expected true or false, got {raw_theta!r}")

    return JobConfig(
        space=space,
        mode=mode,
        seed_family=family,
        m=m,
        a=a,
        H=H,
        c=c,
        u_range=u_range,
        u_expr=u_expr,
        du_expr=du_expr,
        sweep_values=sweep_values,
        nu=nu,
        nt=nt,
        t_range=t_range,
        tol=tol,
        check_tol=check_tol,
        basename=basename,
        formats=formats,
        raw_theta=raw_theta,
    )


class _Calls(ast.NodeTransformer):
    """The binary operators of ``names`` as calls of the names they map to."""

    def __init__(self, names: dict):
        self.names = names

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        name = self.names.get(type(node.op))
        if name is None:
            return node
        call = ast.Call(ast.Name(name, ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


def _pow(a, b) -> float:
    # a float power: integer operands must not start an exact integer power,
    # which can take unbounded time and memory (9**9**9); a power that leaves
    # the reals raises ValueError, as math's functions do
    value = float(a) ** float(b)
    if isinstance(value, complex):
        raise ValueError(f"{a} ** {b} is not a real number")
    return value


_FLOAT_NS = {**_EXPR_NS, "_pow": _pow}


def _array_namespace(failed: np.ndarray) -> dict:
    """The names of an expression evaluated at a 1-D array u: each function
    and ** elementwise, with the float evaluation's bits, and / and sqrt as
    numpy's IEEE division and square root (both correctly rounded, so
    math's bits); ``failed`` records the elements where the float
    evaluation raises."""

    def div(a, b):
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return a / b
        failed[...] |= b == 0  # ZeroDivisionError for floats
        return np.true_divide(a, b)

    def sqrt(x):
        if not isinstance(x, np.ndarray):
            return math.sqrt(x)
        failed[...] |= x < 0.0  # ValueError for floats
        return np.sqrt(x)

    names = {name: elementwise(fn, failed) if callable(fn) else fn for name, fn in _FLOAT_NS.items()}
    names["abs"] = lambda x: np.abs(x) if isinstance(x, np.ndarray) else abs(x)
    names["_div"] = div
    names["sqrt"] = sqrt
    return names


def _compile_expr(expr: str, path: str):
    """The expression as a function of u: a float, or elementwise a 1-D array
    with NaN where the float evaluation fails."""
    # a config file must not run code: only the checked grammar is compiled
    if not isinstance(expr, str):
        raise ConfigError(f"{path}: expected an expression string, got {expr!r}")
    try:
        tree = ast.parse(expr, f"<{path}>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"{path}: bad expression {expr!r}: {exc}")
    bad = _disallowed(tree.body)
    if bad is not None:
        raise ConfigError(
            f"{path}: {ast.unparse(bad)!r} is not allowed in {expr!r}; use u, numbers, "
            f"+ - * / **, and {', '.join(sorted(_EXPR_NS))}"
        )
    # ** is _pow on both paths; / is numpy's IEEE division on arrays
    tree = ast.fix_missing_locations(_Calls({ast.Pow: "_pow"}).visit(tree))
    code = compile(tree, f"<{path}>", "eval")
    array_tree = ast.fix_missing_locations(_Calls({ast.Div: "_div"}).visit(tree))
    array_code = compile(array_tree, f"<{path}>", "eval")

    def fn(u):
        if isinstance(u, np.ndarray):
            failed = np.zeros(u.size, dtype=bool)
            try:
                with np.errstate(all="ignore"):
                    out = eval(array_code, {"__builtins__": {}}, {**_array_namespace(failed), "u": u})
                out = np.broadcast_to(np.asarray(out, dtype=float), u.shape).copy()
            except Exception:
                # fails at every u: the float evaluation says how
                return np.full(u.size, math.nan)
            out[failed] = math.nan
            return out
        try:
            return float(eval(code, {"__builtins__": {}}, {**_FLOAT_NS, "u": u}))
        except Exception as exc:
            raise BcvHelixError(f"{path}: evaluation failed at u={u}: {exc}")

    return fn


def resolve_profile(job: JobConfig):
    """U(u) plus metadata for the configured seed family."""
    meta = {"family": job.seed_family, "m": job.m, "a": job.a, "H": job.H, "c": job.c}
    if job.seed_family == "cmc-case":
        U, case = cmc_U(job.space, job.m, job.a, job.H, job.c, u_window=job.u_range, tol=job.tol)
        meta["case"] = case.value
        meta["domain"] = list(U.domain)
    elif job.seed_family == "minimal-case":
        U, cls = minimal_U(job.space, job.m, job.a, job.c, u_window=job.u_range, tol=job.tol)
        meta["case"] = cls.value
        meta["domain"] = list(U.domain)
        meta["H"] = 0.0
    else:
        f = _compile_expr(job.u_expr, "seed.U")
        df = _compile_expr(job.du_expr, "seed.dU") if job.du_expr else None
        U = ArrayFunction(f, df, tol=job.tol)
        meta["domain"] = list(job.u_range)
    return U, meta


def make_chart(
    job: JobConfig, U: SmoothFunction, meta: dict, a: Optional[float] = None
) -> tuple[NaturalChart, dict]:
    """Natural chart of the configured family member, from the profile
    ``U, meta`` that ``resolve_profile`` gave for the job.

    ``a`` overrides only the chart pitch (deform sweeps): the metric profile
    U stays the one resolved at the configured base pitch, so sweep frames
    are members of one isometry family, not different surfaces.  Each chart
    scans its own validity domain, since validity depends on the pitch.
    """
    pitch = job.a if a is None else a
    meta = dict(meta, a=pitch)
    lo, hi = meta["domain"]
    seed = BourSeed(U, job.m, pitch, (lo, hi))
    chart = build_chart(job.space, seed, job.tol)
    meta["validity"] = list(chart.u_valid)
    return chart, meta


def _write_atomic(path: str, data: str):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# The text of a double is its "%.16e": 17 significant digits, enough to read
# each double back bit for bit.  The writers format their floats with one
# array kernel, _e16_fields, which gives the same bytes as "%.16e" % v per
# value; the mesh writers format each distinct number of a frame once.
_E16_WIDTH = 24  # "-d.dddddddddddddddde-ddd", the longest "%.16e" of a double
_K_MIN, _K_MAX = -272, 271  # decimal exponents of the fast path
_FAST_MIN, _FAST_MAX = 2.0 ** -900, 2.0 ** 900
_TIE_BAND = 2.0 ** -30
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


def _split(a):
    """Dekker's split: a = hi + lo, each half with at most 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _e16_tables():
    """10**(16 - k) for k in [_K_MIN, _K_MAX] as a double-double (th, tl),
    th split for the two-product, indexed k - _K_MIN; the ASCII digits of
    0..9999; the texts of the exponents k, each a 4-byte word indexed
    k - _K_MIN (the sign, then two digits, or three); the NUL-padded texts
    of NaN, inf and -inf."""
    th, tl = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 16:
            power = 10 ** (16 - k)
            hi = float(power)
            lo = float(power - int(hi))
        else:
            power = 10 ** (k - 16)
            hi = 1 / power  # correctly rounded
            num, den = hi.as_integer_ratio()
            lo = (den - num * power) / (den * power)  # 1/power - hi, rounded
        th.append(hi)
        tl.append(lo)
    th = np.array(th)
    th_hi, th_lo = _split(th)

    def ascii_table(texts, width):
        data = "".join(t.ljust(width, "\0") for t in texts).encode("ascii")
        return np.frombuffer(data, np.uint8).reshape(len(texts), width)

    digits = ascii_table([f"{i:04d}" for i in range(10_000)], 4).view(np.uint32).ravel()
    signed = [("-" if k < 0 else "+") + f"{abs(k):02d}" for k in range(_K_MIN, _K_MAX + 1)]
    exponents = ascii_table(signed, 4).view(np.uint32).ravel()
    specials = ascii_table(["%.16e" % v for v in (math.nan, math.inf, -math.inf)], _E16_WIDTH)
    return th, th_hi, th_lo, np.array(tl), digits, exponents, specials


def _e16_fields(x, field=None) -> np.ndarray:
    """The "%.16e" text of each element of the float array x, NUL-padded to
    _E16_WIDTH bytes, written into ``field``, a uint8 array (or view) of
    shape x.shape + (_E16_WIDTH,), or into a new one; returns ``field``.

    The 17 digits of |x| are D = round-half-even(P), P = |x| * 10**(16 - k)
    in [1e16, 1e17), so that 10**k <= |x| < 10**(k+1).  10**(16 - k) is a
    double-double th + tl, within 2**-106 relative; |x| * th is Dekker's
    two-product (exact without FMA) and |x| * tl is added to its error, so
    P = s + e with s whole (s >= 2**53), |e| <= ulp(s) / 2 and an error
    below 1e-14.  k starts as floor(log10 |x|) and moves by one where the
    *unrounded* P leaves the range; a D that then rounds up to 1e17 is 1e16
    with k + 1.  (Choosing k from the rounded D would print
    1.0000000000000000e-304 for 9.9999999999999997e-305.)  The fast path
    covers ±0 and 2**-900 < |x| < 2**900; NaN and ±inf are the texts "nan",
    "inf" and "-inf"; any other |x| and a P whose fraction is within 2**-30
    of 1/2 (exact ties such as 2**50 + 0.25 occur) go through "%.16e"
    itself.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    th, th_hi, th_lo, tl, digits, exponents, specials = _e16_tables()
    x = x.ravel()
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax > _FAST_MIN) & (ax < _FAST_MAX)  # False for NaN
    v = np.where(fast, ax, 1.0)
    v_hi, v_lo = _split(v)
    k = np.floor(np.log10(v)).astype(np.int64)

    def scaled(i):
        # P = s + e for the elements i, with |e| <= ulp(s) / 2
        t = k[i] - _K_MIN
        vi = v[i]
        p = vi * th[t]
        a_hi, a_lo, b_hi, b_lo = v_hi[i], v_lo[i], th_hi[t], th_lo[t]
        lo = (((a_hi * b_hi - p) + a_hi * b_lo) + a_lo * b_hi) + a_lo * b_lo + vi * tl[t]
        s = p + lo
        return s, lo - (s - p)

    s, e = scaled(slice(None))
    # k moves by one where the unrounded P < 1e16 or P >= 1e17
    below = (s < 1e16) | ((s == 1e16) & (e < 0))
    step = ((s > 1e17) | ((s == 1e17) & (e >= 0))).astype(np.int64) - below
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        s[moved], e[moved] = scaled(moved)
    whole = np.floor(e)
    frac = e - whole
    D = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    k += carry
    # a D outside [1e16, 1e17) would need a k further off than one step
    ok = fast & (np.abs(frac - 0.5) >= _TIE_BAND) & (D >= 10**16) & (D < 10**17)
    D[zero] = 0
    k[zero] = 0
    ok |= zero

    if field is None:
        field = np.empty((*shape, _E16_WIDTH), np.uint8)
    field[..., 0] = (np.signbit(x) * np.uint8(ord("-"))).reshape(shape)
    # D = lead * 10**16 + high * 10**8 + low, then four 4-digit chunks
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**8
    high = top - lead * 10**8
    field[..., 1] = (lead + ord("0")).reshape(shape)
    field[..., 2] = ord(".")
    chunks = np.empty((x.size, 4), np.int32)
    chunks[:, 0] = high // 10**4
    chunks[:, 1] = high - chunks[:, 0] * 10**4
    chunks[:, 2] = low // 10**4
    chunks[:, 3] = low - chunks[:, 2] * 10**4
    field[..., 3:19] = digits[chunks].view(np.uint8).reshape(*shape, 16)
    field[..., 19] = ord("e")
    field[..., 20:] = exponents.take(k - _K_MIN).view(np.uint8).reshape(*shape, 4)
    finite = np.isfinite(x)
    special = np.flatnonzero(~finite)
    if special.size:
        which = np.where(np.isnan(x[special]), 0, np.where(x[special] > 0.0, 1, 2))
        field[np.unravel_index(special, shape)] = specials[which]
    slow = np.flatnonzero(~ok & finite)
    if slow.size:
        texts = ["%.16e" % value for value in x[slow].tolist()]
        field[np.unravel_index(slow, shape)] = np.frombuffer(
            "".join(t.ljust(_E16_WIDTH, "\0") for t in texts).encode("ascii"), np.uint8
        ).reshape(-1, _E16_WIDTH)
    return field


def _row_buffer(rows: int, cols: int, sep: str, prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The NUL-filled bytes of ``rows`` text rows of ``cols`` fields, with
    the prefix, the separators and the newlines in place, and the view of
    its fields, shape (rows, cols, _E16_WIDTH).  A field is NUL-padded to
    _E16_WIDTH and the newline takes the last field's separator slot."""
    pre, gap = len(prefix), max(len(sep), 1)
    buf = np.zeros((rows, pre + cols * (_E16_WIDTH + gap)), np.uint8)
    buf[:, :pre] = np.frombuffer(prefix.encode("ascii"), np.uint8)
    cells = buf[:, pre:].reshape(rows, cols, _E16_WIDTH + gap)
    cells[:, :-1, _E16_WIDTH:_E16_WIDTH + len(sep)] = np.frombuffer(sep.encode("ascii"), np.uint8)
    cells[:, -1, _E16_WIDTH] = ord("\n")
    return buf, cells[..., :_E16_WIDTH]


def _text(buf: np.ndarray) -> str:
    """The bytes of buf without its NULs, as text."""
    out = buf.ravel()
    return out[out != 0].tobytes().decode("ascii")


def _e16_rows(table, sep: str, prefix: str = "") -> str:
    """The rows of a 2-D float table as text, each
    ``prefix + sep.join("%.16e" % v for v in row) + "\n"``, byte for byte:
    the fields are formatted in place in the row buffer."""
    table = np.asarray(table, dtype=float)
    buf, field = _row_buffer(*table.shape, sep, prefix)
    _e16_fields(table, field)
    return _text(buf)


@functools.cache
def _int_words():
    """The 4-byte ASCII words of _int_rows, as uint32: the digit table of
    _e16_rows (0..9999 with four digits), then 0..9999 without leading
    zeros (NUL-padded on the left), then four NULs."""
    leads = "".join(str(i).rjust(4, "\0") for i in range(10_000)) + "\0" * 4
    return np.concatenate([_e16_tables()[4], np.frombuffer(leads.encode("ascii"), np.uint32)])


def _int_rows(table, prefix: str) -> str:
    """The rows of a 2-D table of integers in [0, 10**16) as text, each
    ``prefix + " ".join("%d" % v for v in row) + "\n"``, byte for byte.

    Each value takes as many 4-digit words as the widest one: NUL words
    above its leading digits, its leading word without leading zeros, and
    four digits below; the prefix and each separator are NUL-padded words.
    The NULs are then dropped."""
    table = np.asarray(table, dtype=np.int64)
    rows, cols = table.shape
    chunks = -(-len(str(int(table.max()))) // 4) if table.size else 1
    words = _int_words()
    head = np.frombuffer((prefix + "\0" * (-len(prefix) % 4)).encode("ascii"), np.uint32)
    space, newline = np.frombuffer(b" \0\0\0\n\0\0\0", np.uint32)
    out = np.empty((rows, len(head) + cols * (chunks + 1)), np.uint32)
    out[:, : len(head)] = head
    cells = out[:, len(head) :].reshape(rows, cols, chunks + 1)
    cells[..., chunks] = space
    cells[:, -1, chunks] = newline
    rest = table
    for j in range(chunks - 1, -1, -1):
        blank = rest == 0  # no digits left: a NUL word, except the last word of 0
        rest, part = np.divmod(rest, 10**4)
        index = part + 10_000 * (rest == 0)
        cells[..., j] = words[index if j == chunks - 1 else np.where(blank, 20_000, index)]
    out = out.view(np.uint8).ravel()
    return out[out != 0].tobytes().decode("ascii")


def write_profile_csv(path: str, chart: NaturalChart, nu: int, margin: float = 1e-9):
    """The chart at nu abscissae: each column is one array query."""
    lo, hi = chart.u_valid
    us = np.linspace(lo + margin, hi - margin, nu)
    xi2, theta0, xi1 = chart.xi2(us), chart.theta0(us), chart.xi1(us)
    # xi1(us) raised nowhere, so U's float call raises at no u: U's column
    # is the float values
    table = np.stack([us, xi1, xi2, theta0, chart.U.column(us)], axis=1)
    _write_atomic(path, "u,xi1,xi2,theta0,U\n" + _e16_rows(table, ","))


def _mesh_fields(mesh: MeshGrid, gauss, resid_per_u) -> tuple[np.ndarray, np.ndarray]:
    """The fields (``_e16_fields``) of the mesh's vertices, shape
    (nu * nt, 3, _E16_WIDTH), and of the mesh CSV's own numbers, u, K, the
    residual, t and h_ext, in that order: one kernel call for all."""
    size = mesh.vertices.size
    numbers = np.concatenate([mesh.vertices.ravel(), mesh.us, gauss, resid_per_u, mesh.ts, mesh.h_ext])
    fields = _e16_fields(numbers)
    return fields[:size].reshape(-1, 3, _E16_WIDTH), fields[size:]


def write_mesh_csv(path: str, mesh: MeshGrid, gauss, resid_per_u, fields=None):
    """One row per vertex, (u, t) row-major: u, t, the vertex, its h_ext,
    the row's Gaussian curvature ``gauss`` (nan where h_ext is NaN) and the
    row's CMC residual.

    Each distinct number is formatted once: u and the per-row columns once
    per row, t once per column, h_ext and the vertices, all in one kernel
    call, ``_mesh_fields``, unless ``fields`` holds its result."""
    nu, nt = mesh.nu, mesh.nt
    vertex_fields, numbers = fields if fields is not None else _mesh_fields(mesh, gauss, resid_per_u)
    u, K, resid, t, h_ext = np.split(numbers, np.cumsum([nu, nu, nu, nt]))
    buf, field = _row_buffer(nu * nt, 8, ",")
    grid = field.reshape(nu, nt, 8, _E16_WIDTH)
    grid[:, :, 0] = u[:, None]
    grid[:, :, 1] = t
    field[:, 2:5] = vertex_fields
    field[:, 5] = h_ext
    grid[:, :, 6] = K[:, None]
    field[np.isnan(mesh.h_ext), 6] = _e16_tables()[6][0]  # "nan"
    grid[:, :, 7] = resid[:, None]
    _write_atomic(path, "u,t,x,y,z,H_ext,K,cmc_residual\n" + _text(buf))


def _kept_vertices(mesh: MeshGrid) -> np.ndarray:
    """The mesh's vertices without a NaN coordinate, the ones an OBJ keeps."""
    return ~np.isnan(mesh.vertices).any(axis=1)


def _obj_faces(nu: int, nt: int, kept: np.ndarray) -> str:
    """The face lines of an OBJ of the nu x nt mesh that keeps the vertices
    ``kept``: its quads split into triangles, without the quads that touch
    a vertex left out."""
    number = np.cumsum(kept)  # OBJ indices are 1-based: the k-th kept vertex is k
    grid = np.arange(nu * nt).reshape(nu, nt)
    # the corners of each quad (i, j), row-major, in the order (i, j),
    # (i+1, j), (i+1, j+1), (i, j+1); a quad is kept when all four are
    quads = np.stack([grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]], axis=-1)
    quads = quads.reshape(-1, 4)
    quads = number[quads[kept[quads].all(axis=1)]]
    faces = quads[:, [0, 1, 2, 0, 2, 3]]  # triangles (q0, q1, q2) and (q0, q2, q3)
    return _int_rows(faces.reshape(-1, 3), "f ")


def write_obj(path: str, mesh: MeshGrid, vertex_fields=None, faces: Optional[str] = None):
    """Wavefront OBJ with quads split into triangles; ASCII, LF endings.
    Vertices with a NaN coordinate are left out, with every face they touch.

    The kept vertices' coordinates are one float table, formatted by one
    kernel unless ``vertex_fields`` holds the fields of all vertices
    (``_e16_fields``), and the faces one integer table, formatted unless
    ``faces`` holds its text (``_obj_faces``)."""
    kept = _kept_vertices(mesh)
    buf, field = _row_buffer(np.count_nonzero(kept), 3, " ", "v ")
    if vertex_fields is None:
        _e16_fields(mesh.vertices[kept], field)
    else:
        field[...] = vertex_fields[kept]
    if faces is None:
        faces = _obj_faces(mesh.nu, mesh.nt, kept)
    text = _text(buf) + faces
    _write_atomic(path, text or "\n")


def _surface(job: JobConfig, chart: NaturalChart) -> SurfaceChart:
    if job.raw_theta:
        # raw (u, theta) parametrization of the same surface: theta0 = 0, m = 1
        return SurfaceChart.raw(
            chart.space, chart.xi1, chart.xi2, chart.a, chart.u_valid, job.t_range, domain=chart.domain
        )
    return SurfaceChart.from_natural(chart, t_range=job.t_range)


def _interior_grid(chart: NaturalChart, job: JobConfig, margin_frac: float = 0.02):
    lo, hi = chart.u_valid
    pad = (hi - lo) * margin_frac
    return np.linspace(lo + pad, hi - pad, job.nu)


def cmd_classify(job: JobConfig, out_dir: str) -> int:
    label = classify(job.space).value
    report = {"kappa": job.space.kappa, "tau": job.space.tau, "class": label}
    print(json.dumps(report, sort_keys=True))
    if "json" in job.formats:
        write_json(os.path.join(out_dir, f"{job.basename}.classify.json"), report)
    return 0


def _cmd_profile(job: JobConfig, out_dir: str) -> int:
    chart, meta = make_chart(job, *resolve_profile(job))
    files = []
    if "csv" in job.formats or job.mode == "chart":
        path = os.path.join(out_dir, f"{job.basename}.profile.csv")
        write_profile_csv(path, chart, job.nu)
        files.append(path)
    report = {"seed": meta, "files": [os.path.basename(f) for f in files]}
    if "json" in job.formats:
        path = os.path.join(out_dir, f"{job.basename}.{job.mode}.json")
        write_json(path, report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_verify(job: JobConfig, out_dir: str) -> int:
    chart, meta = make_chart(job, *resolve_profile(job))
    sc = SurfaceChart.from_natural(chart, t_range=job.t_range)
    us = _interior_grid(chart, job)
    ts = np.linspace(job.t_range[0], job.t_range[1], min(job.nt, 7))
    # a row whose residual cannot be evaluated, or a vertex that cannot be
    # measured, fails its check; the value is the worst that evaluated, null
    # when none did
    resid = np.abs(cmc_residual(job.space, chart.seed, job.H, us, job.tol))
    evaluated = np.isfinite(resid)
    H_target = abs(meta.get("H", job.H))
    rows = us[:: max(1, len(us) // 12)]
    geo = local_geometry(job.space, sc, rows, ts, job.tol)
    measured = np.array([[exc is None for exc in row] for row in geo.errors])
    Uv = chart.U.column(rows)[:, None]
    h_dev = np.abs(np.abs(geo.H) - H_target)
    form_dev = np.maximum.reduce([np.abs(geo.E - 1.0), np.abs(geo.F), np.abs(geo.G - Uv * Uv)])
    checks = {}
    for name, key, dev, done in (
        ("cmc_residual", "cmc_residual", resid, evaluated),
        ("h_ext_vs_H", "h_ext", h_dev, measured),
        ("first_form", "first_form", form_dev, measured),
    ):
        value = float(np.max(dev[done])) if done.any() else None
        tol = job.check_tol[key]
        checks[name] = {"value": value, "tol": tol, "pass": bool(done.all() and value < tol)}
    ok = all(chk["pass"] for chk in checks.values())
    report = {
        "seed": meta,
        "domain": list(chart.u_valid),
        "checks": checks,
        "pass": ok,
    }
    failures = geo.failures()
    if failures:
        report["diagnostic_failures"] = failures
    write_json(os.path.join(out_dir, f"{job.basename}.verify.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0 if ok else 1


def _export_mesh(
    job: JobConfig,
    chart: NaturalChart,
    out_dir: str,
    suffix: str = "",
    with_curvature: bool = True,
    sc: Optional[SurfaceChart] = None,
    grids=(),
    faces: Optional[dict] = None,
):
    """The mesh of the chart and the files it writes.  The mesh is sampled
    on ``sc``, the job's ``_surface`` of the chart if None, with the first
    forms on ``grids`` (``sample_mesh``).  Its diagnostics (``h_ext``,
    ``diagnostic_failures``) are measured only with ``with_curvature``: the
    mesh CSV and the export report read them, the OBJ writer reads only the
    vertices.  The CSV's K is the chart's -U''/U of the row, at the vertices
    where ``h_ext`` was measured.  With a CSV, the vertices and the CSV's
    own numbers are formatted in one call, and the OBJ uses the vertices'
    fields.  ``faces``, if given, maps the kept-vertex masks of the meshes
    of one command to their OBJ face lines, and gains this mesh's."""
    if sc is None:
        sc = _surface(job, chart)
    mesh = sample_mesh(job.space, sc, job.nu, job.nt, job.tol, with_curvature=with_curvature, grids=grids)
    fields = None
    if "csv" in job.formats:
        gauss = gauss_intrinsic(chart.U, mesh.us)
        resid = cmc_residual(job.space, chart.seed, job.H, mesh.us, job.tol)
        fields = _mesh_fields(mesh, gauss, resid)
    files = []
    if "obj" in job.formats:
        path = os.path.join(out_dir, f"{job.basename}{suffix}.obj")
        kept = _kept_vertices(mesh)
        text = None
        if faces is not None:
            key = (mesh.nu, mesh.nt, kept.tobytes())
            if key not in faces:
                faces[key] = _obj_faces(mesh.nu, mesh.nt, kept)
            text = faces[key]
        write_obj(path, mesh, None if fields is None else fields[0], text)
        files.append(path)
    if "csv" in job.formats:
        path = os.path.join(out_dir, f"{job.basename}{suffix}.csv")
        write_mesh_csv(path, mesh, gauss, resid, fields)
        files.append(path)
    return mesh, files


def cmd_export(job: JobConfig, out_dir: str) -> int:
    chart, meta = make_chart(job, *resolve_profile(job))
    mesh, files = _export_mesh(job, chart, out_dir)
    h_known = mesh.h_ext[~np.isnan(mesh.h_ext)]
    report = {
        "seed": meta,
        "vertices": int(mesh.vertex_count),
        "dropped_rows": list(mesh.dropped_rows),
        "diagnostic_failures": mesh.diagnostic_failures,
        "max_abs_h_ext": float(np.max(np.abs(h_known))) if h_known.size else None,
        "files": [os.path.basename(f) for f in files],
    }
    if "json" in job.formats:
        write_json(os.path.join(out_dir, f"{job.basename}.export.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_deform(job: JobConfig, out_dir: str) -> int:
    values = job.sweep_values or [job.a]
    U, meta = resolve_profile(job)
    # a frame's verdict reads its chart and first forms only: it writes a
    # mesh only for obj or csv, and measures H/K only for the csv
    meshed = "obj" in job.formats or "csv" in job.formats
    charts, errors = {}, {}  # (pitch, chart) and errors by frame tag
    for value in values:
        tag = f"{value:g}"
        try:
            charts[tag] = value, make_chart(job, U, meta, a=value)[0]
        except BcvHelixError as exc:
            errors[tag] = str(exc)
    # every chart first: each frame's grids shared with the others are then
    # known, and each frame reads its chart once, for its mesh and its grids
    surfaces = [SurfaceChart.from_natural(chart, t_range=job.t_range) for _, chart in charts.values()]
    grids, shared = pair_grids(surfaces, tol=job.tol)
    # a raw-theta mesh is another chart of the surface than the one whose
    # first forms are compared
    on_mesh = meshed and not job.raw_theta
    frames, forms, faces = [], {}, {}  # forms by the index of the frame's chart
    for k, ((tag, (value, chart)), sc) in enumerate(zip(charts.items(), surfaces)):
        mine = list(grids[k].values())
        try:
            files = []
            if meshed:
                mesh, files = _export_mesh(
                    job, chart, out_dir, suffix=f"_a={tag}", with_curvature="csv" in job.formats,
                    sc=sc if on_mesh else None, grids=mine if on_mesh else (), faces=faces,
                )
            measured = mesh.first_forms if on_mesh else first_forms(job.space, sc, mine, job.tol)
        except BcvHelixError as exc:
            errors[tag] = str(exc)
            continue
        forms[k] = dict(zip(grids[k], measured))
        frames.append(
            {"a": value, "files": [os.path.basename(f) for f in files], "validity": list(chart.u_valid)}
        )
    # a frame in frame_errors holds null in its row and column, diagonal included
    index = {k: n for n, k in enumerate(forms)}  # the measured frames' charts, renumbered
    tags = [tag for k, tag in enumerate(charts) if k in index]
    live = {(index[i], index[j]): key for (i, j), key in shared.items() if i in index and j in index}
    pairs, failed = pair_matrix(list(forms.values()), live)
    ks = [tags.index(tag) if tag in tags else None for tag in map("{:g}".format, values)]
    matrix = [[None if i is None or j is None else pairs[i][j] for j in ks] for i in ks]
    pair_errors = {f"{tags[i]},{tags[j]}": f"{type(exc).__name__}: {exc}" for (i, j), exc in failed.items()}
    worst = max((dev for row in pairs for dev in row if dev is not None), default=0.0)
    ok = not errors and not pair_errors and worst < job.check_tol["isometry"]
    report = {
        "sweep": values,
        "frames": frames,
        "frame_errors": errors,
        "isometry_deviation": matrix,
        "max_isometry_deviation": worst,
        "pass": bool(ok),
    }
    if pair_errors:
        report["pair_errors"] = pair_errors
    write_json(os.path.join(out_dir, f"{job.basename}.deform.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0 if ok else 1


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--override needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--override {key}: {part} is not an object")
        node[parts[-1]] = value
    return cfg


_HANDLERS = {
    "classify": cmd_classify,
    "chart": _cmd_profile,
    "cmc": _cmd_profile,
    "minimal": _cmd_profile,
    "deform": cmd_deform,
    "verify": cmd_verify,
    "export": cmd_export,
}


# built once per process: parsing leaves the parser as it was (an append
# action copies its default list before it appends)
_PARSER = argparse.ArgumentParser(
    prog="bcvhelix",
    description="helicoidal CMC surfaces in BCV spaces: build, deform, verify, export",
)
_PARSER.add_argument("command", choices=_HANDLERS)
_PARSER.add_argument("--config", required=True, help="path to the JSON job config")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument(
    "--override",
    action="append",
    default=[],
    metavar="KEY=VALUE",
    help="dotted-path config override (value parsed as JSON)",
)


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = apply_overrides(cfg, args.override)
        job = parse_config(cfg, args.command)
        os.makedirs(args.out, exist_ok=True)
        return _HANDLERS[args.command](job, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BcvHelixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory or a file in it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
