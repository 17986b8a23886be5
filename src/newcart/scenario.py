"""Scenario files: a line-oriented format bundling one structure, one
observer, and either connection data or a user-supplied coefficient table.

Sections and keys (UTF-8, '#' comments, whitespace-insensitive)::

    [spacetime]   dim = m ; coords = name, name, ...
                  optional: name = ..., description = ...
    [omega]       O = expr, ...            (m entries)
    [observer]    z = expr, ...            (m entries)
    [frame]       E1 = expr, ... .. En     (each m entries)
    [metric]      hab = expr               (1 <= a <= b <= n; diagonal
                                            required, off-diagonal defaults 0)
    [gravity]     G = expr, ...            (n entries, default all 0)
    [coriolis]    wab = expr               (a < b, default 0)
    [theta]       Ta_ij = expr             (frame index a, 0-based coordinate
                                            indices i < j, default 0)
    [christoffel] Ck_ij = expr             (optional; selects the user-supplied
                                            connection workflow, unlisted
                                            coefficients are 0)
    [domain]      box = lo hi, lo hi, ...  (m pairs)
                  samples = int ; seed = int  (1 <= samples <= 100000,
                                               seed >= 0, bounds finite)

Omitted gravity/coriolis/theta sections mean zero data.  A christoffel
section may not be combined with data sections.  A key that its section
does not list is an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .connection import ConnectionData
from .errors import (DimensionMismatch, MissingSection, NewcartError,
                     ScenarioParseError)
from .expr import FUNCTIONS, ZERO, parse_expr, to_string
from .geometry import ObserverField, SpacetimeStructure

_REQUIRED = ("spacetime", "omega", "observer", "frame", "metric", "domain")
_KNOWN = _REQUIRED + ("gravity", "coriolis", "theta", "christoffel")
# the keys of the fixed-key sections; the others have indexed keys
_KEYS = {"spacetime": ("dim", "coords", "name", "description"), "omega": ("O",),
         "observer": ("z",), "gravity": ("G",), "domain": ("box", "samples", "seed")}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    structure: SpacetimeStructure
    observer: ObserverField
    data: ConnectionData | None
    christoffel: tuple | None

    @property
    def has_user_connection(self):
        return self.christoffel is not None


def _read_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KNOWN:
                raise ScenarioParseError(f"unknown section '{current}'", line=lineno)
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ScenarioParseError("content before any section header", line=lineno)
        if "=" not in line:
            raise ScenarioParseError("expected 'key = value'", section=current, line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if current in _KEYS and key not in _KEYS[current]:
            raise ScenarioParseError(f"unknown key '{key}'", section=current, key=key,
                                     line=lineno)
        if key in sections[current]:
            raise ScenarioParseError(f"duplicate key '{key}'", section=current, line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _expr(text, coords, section, key):
    try:
        return parse_expr(text, coords)
    except NewcartError as err:
        raise ScenarioParseError(str(err), section=section, key=key) from err


def _number(kind, section, key, text, line, least=0, most=math.inf):
    """The int or float in a numeric field: an int in [least, most], a finite float."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not (least <= value <= most if kind is int else math.isfinite(value)):
        what = (f"an integer >= {least}" + (f" and <= {most}" if most < math.inf else "")
                if kind is int else "a finite number")
        raise ScenarioParseError(f"'{text}' is not {what}", section=section, key=key, line=line)
    return value


def _indexed(sections, section, shape):
    """(key, indices, value) of each entry of an indexed section, in file
    order.  A key has the `shape`, each lower-case letter of it one ASCII digit."""
    pattern = shape[0] + re.sub("[a-z]", "([0-9])", shape[1:])
    for key, (value, lineno) in sections.get(section, {}).items():
        match = re.fullmatch(pattern, key)
        if not match:
            raise ScenarioParseError(f"{section} keys look like '{shape}'", section=section,
                                     key=key, line=lineno)
        yield key, tuple(int(g) for g in match.groups()), value


def _expr_list(text, coords, section, key, want):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != want:
        raise DimensionMismatch(
            f"[{section}] {key}: expected {want} comma-separated entries, got {len(parts)}")
    return tuple(_expr(part, coords, section, key) for part in parts)


def load_scenario_text(text, name="scenario"):
    sections = _read_sections(text)
    missing = [s for s in _REQUIRED if s not in sections]
    if missing:
        raise MissingSection(missing)

    spacetime = sections["spacetime"]
    if "dim" not in spacetime or "coords" not in spacetime:
        raise ScenarioParseError("needs 'dim' and 'coords'", section="spacetime")
    m = _number(int, "spacetime", "dim", *spacetime["dim"])
    coords = tuple(c.strip() for c in spacetime["coords"][0].split(","))
    if len(coords) != m:
        raise DimensionMismatch(f"dim = {m} but {len(coords)} coordinate names given")
    if m < 2:
        raise DimensionMismatch("dim must be at least 2")
    for c in coords:
        if not _IDENT.match(c):
            raise ScenarioParseError(f"bad coordinate name '{c}'", section="spacetime")
        if c in FUNCTIONS:
            raise ScenarioParseError(
                f"coordinate name '{c}' collides with a function name", section="spacetime")
    if len(set(coords)) != m:
        raise ScenarioParseError("coordinate names must be distinct", section="spacetime")
    n = m - 1
    scenario_name = spacetime.get("name", (name, 0))[0]
    description = spacetime.get("description", ("", 0))[0]

    if "O" not in sections["omega"]:
        raise ScenarioParseError("needs 'O'", section="omega")
    omega = _expr_list(sections["omega"]["O"][0], coords, "omega", "O", m)
    if "z" not in sections["observer"]:
        raise ScenarioParseError("needs 'z'", section="observer")
    observer = ObserverField(
        _expr_list(sections["observer"]["z"][0], coords, "observer", "z", m))

    frame_sec = sections["frame"]
    fields = []
    for a in range(1, n + 1):
        key = f"E{a}"
        if key not in frame_sec:
            raise DimensionMismatch(f"[frame] needs fields E1..E{n} (missing {key})")
        fields.append(_expr_list(frame_sec[key][0], coords, "frame", key, m))
    extra = set(frame_sec) - {f"E{a}" for a in range(1, n + 1)}
    if extra:
        raise DimensionMismatch(f"[frame] has unexpected keys for a {m}-dimensional chart: "
                                + ", ".join(sorted(extra)))

    metric = [[None] * n for _ in range(n)]
    for key, (a, b), value in _indexed(sections, "metric", "hab"):
        if not (1 <= a <= b <= n):
            raise DimensionMismatch(f"[metric] key {key} out of range for n = {n}")
        e = _expr(value, coords, "metric", key)
        metric[a - 1][b - 1] = e
        metric[b - 1][a - 1] = e
    for a in range(n):
        if metric[a][a] is None:
            raise DimensionMismatch(f"[metric] diagonal entry h{a + 1}{a + 1} is required")
        for b in range(n):
            if metric[a][b] is None:
                metric[a][b] = ZERO
                metric[b][a] = ZERO

    domain = sections["domain"]
    if "box" not in domain:
        raise ScenarioParseError("needs 'box'", section="domain")
    box, line = [], domain["box"][1]
    for pair in domain["box"][0].split(","):
        nums = pair.split()
        if len(nums) != 2:
            raise ScenarioParseError("box entries are 'lo hi' pairs", section="domain",
                                     key="box", line=line)
        box.append(tuple(_number(float, "domain", "box", num, line) for num in nums))
    if len(box) != m:
        raise DimensionMismatch(f"[domain] box needs {m} intervals, got {len(box)}")
    # a check over no sample points would pass on nothing; a huge count exhausts memory
    samples, seed = (_number(int, "domain", key, *domain.get(key, (default, None)), *bounds)
                     for key, default, *bounds in (("samples", "50", 1, 100_000),
                                                   ("seed", "0", 0)))

    structure = SpacetimeStructure(
        coord_names=coords, omega=omega, frame=tuple(fields),
        metric=tuple(tuple(row) for row in metric),
        domain_box=tuple(box), sample_count=samples, rng_seed=seed)

    christoffel = None
    if "christoffel" in sections:
        for key in ("gravity", "coriolis", "theta"):
            if sections.get(key):
                raise ScenarioParseError(
                    "christoffel section cannot be combined with connection data",
                    section="christoffel")
        table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        for key, (k, i, j), value in _indexed(sections, "christoffel", "Ck_ij"):
            if not (k < m and i < m and j < m):
                raise DimensionMismatch(f"[christoffel] key {key} out of range for m = {m}")
            table[k][i][j] = _expr(value, coords, "christoffel", key)
        christoffel = tuple(tuple(tuple(row) for row in plane) for plane in table)
        data = None
    else:
        gravity = tuple(ZERO for _ in range(n))
        if sections.get("gravity"):
            gravity = _expr_list(sections["gravity"]["G"][0], coords, "gravity", "G", n)
        coriolis = {}
        for key, (a, b), value in _indexed(sections, "coriolis", "wab"):
            if not (1 <= a < b <= n):
                raise DimensionMismatch(f"[coriolis] key {key} needs 1 <= a < b <= {n}")
            coriolis[(a - 1, b - 1)] = _expr(value, coords, "coriolis", key)
        theta = {}
        for key, (a, i, j), value in _indexed(sections, "theta", "Ta_ij"):
            if not (1 <= a <= n):
                raise DimensionMismatch(f"[theta] frame index in {key} out of range for n = {n}")
            if not (i < j < m):
                raise DimensionMismatch(f"[theta] key {key} needs coordinate indices i < j < {m}")
            theta[(a - 1, i, j)] = _expr(value, coords, "theta", key)
        data = ConnectionData(gravity=gravity, coriolis=coriolis, theta=theta)

    return Scenario(name=scenario_name, description=description, structure=structure,
                    observer=observer, data=data, christoffel=christoffel)


def load_scenario(path):
    """Load and validate a scenario file: UTF-8, a leading byte order mark allowed."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioParseError(f"cannot read scenario file: {err}") from err
    return load_scenario_text(text, name=path.stem)


def serialize_scenario(scn):
    """Render a scenario back into the file format."""
    S = scn.structure
    names = S.coord_names
    m, n = S.dim, S.n
    out = []
    out.append("[spacetime]")
    out.append(f"dim = {m}")
    out.append("coords = " + ", ".join(names))
    if scn.name:
        out.append(f"name = {scn.name}")
    if scn.description:
        out.append(f"description = {scn.description}")
    out.append("[omega]")
    out.append("O = " + ", ".join(to_string(e, names) for e in S.omega))
    out.append("[observer]")
    out.append("z = " + ", ".join(to_string(e, names) for e in scn.observer.components))
    out.append("[frame]")
    for a, f in enumerate(S.frame, start=1):
        out.append(f"E{a} = " + ", ".join(to_string(e, names) for e in f))
    out.append("[metric]")
    for a in range(n):
        for b in range(a, n):
            out.append(f"h{a + 1}{b + 1} = " + to_string(S.metric[a][b], names))
    if scn.data is not None:
        out.append("[gravity]")
        out.append("G = " + ", ".join(to_string(e, names) for e in scn.data.gravity))
        if scn.data.coriolis:
            out.append("[coriolis]")
            for (a, b) in sorted(scn.data.coriolis):
                out.append(f"w{a + 1}{b + 1} = "
                           + to_string(scn.data.coriolis[(a, b)], names))
        if scn.data.theta:
            out.append("[theta]")
            for (a, i, j) in sorted(scn.data.theta):
                out.append(f"T{a + 1}_{i}{j} = "
                           + to_string(scn.data.theta[(a, i, j)], names))
    if scn.christoffel is not None:
        out.append("[christoffel]")
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    e = scn.christoffel[k][i][j]
                    if e != ZERO:
                        out.append(f"C{k}_{i}{j} = " + to_string(e, names))
    out.append("[domain]")
    out.append("box = " + ", ".join(f"{lo!r} {hi!r}" for lo, hi in S.domain_box))
    out.append(f"samples = {S.sample_count}")
    out.append(f"seed = {S.rng_seed}")
    return "\n".join(out) + "\n"


def bundled_scenario_path(name):
    """Filesystem path of a scenario shipped with the package."""
    if not name.endswith(".scn"):
        name = name + ".scn"
    return Path(str(resources.files("newcart").joinpath("scenarios", name)))
