"""Output parsers and correctness checks of the benchmark.

Each check compares against the digitised paper data (through the
`--delta-table` anchor counts), against a separate one-shot process, or
against a property the method must have.  None compares against a stored
copy of an earlier output.  Every function returns a list of error
strings; an empty list means the output passed.
"""

import json
import re

SWEEP_COLUMNS = (
    "ranks", "prime", "local_inner", "time_per_step", "speedup", "bandwidth", "volume_per_step",
)
_AGGRESSOR = re.compile(r"-vs-(stream-heavy|stream|thrash)")
_GRID = re.compile(r"-g(\d+)-r")
_CHECK_LINE = re.compile(r"^(\S+): (\d+)/(\d+) cells within tolerance")


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class Block:
    """One artifact of a sweep or interfere output.

    `values[r][c]` is the number in row r, column c; `half_units[r][c]` is
    half of its last printed digit (0 for JSON, which prints full
    precision), the rounding error a printed value can carry.
    """

    def __init__(self, ident, columns, values, half_units, texts):
        self.id = ident
        self.columns = columns
        self.values = values
        self.half_units = half_units
        self.texts = texts

    def col(self, name):
        return self.columns.index(name)


def _half_unit(text):
    return 0.5 * 10.0 ** -len(text.split(".")[1]) if "." in text else 0.5


def parse_blocks(text):
    """Parse a `figures sweep`/`interfere` output, CSV blocks or JSON."""
    if text.startswith("["):
        blocks = []
        for a in json.loads(text):
            rows = a["rows"]
            blocks.append(
                Block(
                    a["id"],
                    [c["name"] for c in a["columns"]],
                    [[v if isinstance(v, (int, float)) else None for v in r] for r in rows],
                    [[0.0] * len(r) for r in rows],
                    [[str(v) for v in r] for r in rows],
                )
            )
        return blocks
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.fullmatch(r"==== (\S+) ====", lines[i])
        if not m:
            i += 1
            continue
        columns = lines[i + 1].split(",")
        values, half_units, texts = [], [], []
        i += 2
        while i < len(lines) and lines[i] and not lines[i].startswith("#"):
            cells = lines[i].split(",")
            texts.append(cells)
            values.append([_number(c) for c in cells])
            half_units.append([_half_unit(c) for c in cells])
            i += 1
        blocks.append(Block(m.group(1), columns, values, half_units, texts))
    return blocks


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a, b, tolerance):
    return abs(a - b) <= tolerance + 1e-12 * max(abs(a), abs(b))


def sweep_errors(text):
    """Check every block of a `figures sweep` payload.

    - `prime` is 1 exactly for prime rank counts, and a prime rank count
      has the 1-D decomposition `local_inner == grid // ranks`;
    - the first row's speedup is 1 and each row's is `t_first / t`;
    - an aggressor block has the ranks, prime, local_inner, speedup and
      bandwidth of the plan's no-aggressor block, and its time_per_step
      and volume_per_step are that block's scaled by one common factor
      (the victim moves factor-times the bytes in factor-times the time).
    """
    try:
        blocks = parse_blocks(text)
    except (ValueError, KeyError, IndexError) as e:
        return [f"unparsable payload: {e}"]
    if not blocks:
        return ["payload holds no sweep block"]
    errors = []
    by_id = {b.id: b for b in blocks}
    for b in blocks:
        if tuple(b.columns) != SWEEP_COLUMNS or not b.values:
            errors.append(f"{b.id}: unexpected columns {b.columns} or no rows")
            continue
        errors += _block_errors(b)
        if _AGGRESSOR.search(b.id):
            base = by_id.get(_AGGRESSOR.sub("", b.id))
            if base is None:
                errors.append(f"{b.id}: the plan has no matching no-aggressor block")
            else:
                errors += _aggressor_errors(b, base)
    return errors


def _block_errors(b):
    errors = []
    grid_match = _GRID.search(b.id)
    if not grid_match:
        return [f"{b.id}: no grid in the block id"]
    grid = int(grid_match.group(1))
    r, p, li, t, s = (b.col(n) for n in ("ranks", "prime", "local_inner", "time_per_step", "speedup"))
    t0, t0_err = b.values[0][t], b.half_units[0][t]
    if not _close(b.values[0][s], 1.0, b.half_units[0][s]):
        errors.append(f"{b.id}: first speedup {b.texts[0][s]} is not 1")
    for row, err, txt in zip(b.values, b.half_units, b.texts):
        ranks = int(row[r])
        if int(row[p]) != int(is_prime(ranks)):
            errors.append(f"{b.id}: ranks {ranks} has prime={txt[p]}")
        if is_prime(ranks) and int(row[li]) != grid // ranks:
            errors.append(f"{b.id}: prime ranks {ranks} has local_inner {txt[li]}, not {grid // ranks}")
        expected = t0 / row[t]
        tolerance = err[s] + expected * (t0_err / t0 + err[t] / row[t])
        if not _close(row[s], expected, tolerance):
            errors.append(f"{b.id}: ranks {ranks} speedup {txt[s]} is not t_first/t = {expected:.6f}")
    return errors


def _aggressor_errors(b, base):
    if len(b.values) != len(base.values):
        return [f"{b.id}: {len(b.values)} rows against {len(base.values)} without aggressor"]
    errors = []
    for name in ("ranks", "prime", "local_inner", "speedup", "bandwidth"):
        c = b.col(name)
        for row, err, brow, berr in zip(b.values, b.half_units, base.values, base.half_units):
            # Printed values may differ by one last digit when the scaled
            # value rounds the other way.
            if not _close(row[c], brow[c], 2 * (err[c] + berr[c])):
                errors.append(f"{b.id}: {name} {row[c]} differs from {brow[c]} without aggressor")
                break
    factor = None
    for name in ("time_per_step", "volume_per_step"):
        c = b.col(name)
        for row, err, brow, berr in zip(b.values, b.half_units, base.values, base.half_units):
            ratio = row[c] / brow[c]
            tolerance = ratio * (err[c] / row[c] + berr[c] / brow[c])
            if factor is None:
                factor, factor_tolerance = ratio, tolerance
            elif not _close(ratio, factor, tolerance + factor_tolerance):
                errors.append(f"{b.id}: {name} scaled by {ratio:.9f}, not the common {factor:.9f}")
                break
    return errors


def interfere_errors(text):
    """In `interfere-timestep`, each row's inflation is its volume ratio to
    the `none` row."""
    blocks = {b.id: b for b in parse_blocks(text)}
    b = blocks.get("interfere-timestep")
    if b is None:
        return ["no interfere-timestep block"]
    a, inf, v = (b.col(n) for n in ("aggressor", "inflation", "volume_per_step"))
    none = [i for i, txt in enumerate(b.texts) if txt[a] == "none"]
    if len(none) != 1:
        return ["interfere-timestep has no single none row"]
    v0, v0_err = b.values[none[0]][v], b.half_units[none[0]][v]
    errors = []
    for row, err, txt in zip(b.values, b.half_units, b.texts):
        ratio = row[v] / v0
        if not _close(row[inf], ratio, err[inf] + ratio * (err[v] / row[v] + v0_err / v0)):
            errors.append(f"interfere-timestep: {txt[a]} inflation {txt[inf]} is not {ratio:.6f}")
    return errors


def anchor_counts(delta_table):
    """Anchors per artifact from `figures --delta-table all`."""
    counts = {}
    column = None
    for line in delta_table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if column is None:
            if "anchors" in cells:
                column = cells.index("anchors")
            continue
        if len(cells) > column and cells[0].startswith("`"):
            counts[cells[0].strip("`")] = int(cells[column])
    return counts


def paper_errors(text, exit_code, anchors):
    """A `figures --check all` run passes when it exits 0, reports every
    artifact of the paper data, and has all of each artifact's anchors
    within tolerance."""
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    checked = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checked[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    if not anchors:
        errors.append("no anchors in the delta table")
    if set(checked) != set(anchors):
        errors.append(f"checked artifacts {sorted(checked)} differ from {sorted(anchors)}")
    for name, (passed, cells) in checked.items():
        if cells != anchors.get(name):
            errors.append(f"{name}: {cells} cells checked, {anchors.get(name)} anchors")
        if passed != cells:
            errors.append(f"{name}: {passed}/{cells} cells within tolerance")
    return errors
