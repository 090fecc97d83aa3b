"""Output checks for benchmark queries.

Every query's output is checked against the JSON schemas shipped with the
program and against invariants derived here from the characteristic alone
(gcd chain, group count, W-factor count, multiplicity totals, the pairwise
contact rule).  The derivations are independent of the program's own code,
so a wrong or corrupted output cannot check itself.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import jsonschema
from referencing import Registry, Resource


def _q(text) -> Fraction:
    return Fraction(str(text))


class Expectation:
    """What the theory fixes about the generic k-th polar of K(char)."""

    def __init__(self, char, k: int):
        self.char = tuple(char)
        self.k = k
        b = self.char
        e = [b[0]]
        for bi in b[1:]:
            e.append(gcd(e[-1], bi))
        self.e = e
        self.h = len(b) - 1
        self.b0 = b[0]
        self.groups = []
        for l in range(1, self.h + 1):
            if e[l - 1] <= k:
                break
            n_l = e[l - 1] // e[l]
            t = (k - 1) % n_l + 1
            self.groups.append({
                "l": l,
                "cont_f": Fraction(b[l], b[0]),
                "nsub": b[0] // e[l - 1],
                "n": n_l,
                "t": t,
                "w_count": min(e[l], k) - -(-k // n_l),
                "w_mult": b[0] // e[l],
                # the t-th derivative of the elementary diagram (m_l, n_l)
                # has height n_l - t, the sum of the N_j of its parts
                "z_mult_total": (b[0] // e[l - 1]) * (n_l - t),
            })

    def prefix(self, l: int) -> list:
        return [Fraction(self.char[i], self.b0) for i in range(1, l)]


class OutputChecker:
    """Checks predict (text, json, dot) and verify (json) outputs."""

    def __init__(self, schema_dir: Path):
        resources = [
            (path.name, Resource.from_contents(json.loads(path.read_text())))
            for path in sorted(Path(schema_dir).glob("*.json"))
        ]
        registry = Registry().with_resources(resources)
        self._validators = {}
        for name in ("prediction", "verify_report"):
            schema = json.loads((Path(schema_dir) / f"{name}.schema.json").read_text())
            cls = jsonschema.validators.validator_for(schema)
            self._validators[name] = cls(schema, registry=registry)
            if name == "prediction":
                row = schema["properties"]["pairwise_contacts"]["items"]
                if row != _CONTACT_ROW_SCHEMA or schema["$defs"]["rational"] != _RATIONAL_SCHEMA:
                    raise ValueError("prediction schema changed: update the contact row check")

    def check(self, query, rc: int, out: str) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self._check(query, out)
        except Exception as exc:  # malformed output is a failed check, not a crash
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _check(self, query, out: str) -> list:
        if query.kind == "verify":
            return self._json(out, "verify_report", lambda blob: check_report(query, blob))
        if query.fmt == "json":
            return self._json(out, "prediction",
                              lambda blob: check_prediction(Expectation(query.char, query.k), blob))
        if query.fmt == "dot":
            return check_dot(Expectation(query.char, query.k), out)
        return check_text(Expectation(query.char, query.k), out)

    def _json(self, out: str, schema: str, more) -> list:
        try:
            blob = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        rows = blob.get("pairwise_contacts") if isinstance(blob, dict) else None
        if schema == "prediction" and isinstance(rows, list):
            # The contact table is quadratic in the factor count; its rows are
            # checked by _contact_row_ok, which is equivalent to their schema
            # and a hundred times faster than the generic validator.
            bad = [row for row in rows if not _contact_row_ok(row)]
            if bad:
                return [f"schema: contact row {bad[0]!r}"]
            errors = self._validators[schema].iter_errors(dict(blob, pairwise_contacts=[]))
        else:
            errors = self._validators[schema].iter_errors(blob)
        errors = [f"schema: {err.message}" for err in errors]
        return errors or more(blob)


_RATIONAL_SCHEMA = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_CONTACT_ROW_SCHEMA = {
    "type": "array",
    "prefixItems": [{"type": "string"}, {"type": "string"}, {"$ref": "#/$defs/rational"}],
    "minItems": 3,
    "maxItems": 3,
}
_RATIONAL = re.compile(_RATIONAL_SCHEMA["pattern"])


def _contact_row_ok(row) -> bool:
    return (type(row) is list and len(row) == 3 and type(row[0]) is str
            and type(row[1]) is str and type(row[2]) is str
            and _RATIONAL.match(row[2]) is not None)


def check_prediction(ex: Expectation, blob: dict) -> list:
    problems = []
    if blob["char"] != list(ex.char) or blob["k"] != ex.k:
        problems.append(f"answers K{blob['char']} k={blob['k']}, asked K{list(ex.char)} k={ex.k}")
        return problems
    groups = blob["groups"]
    if blob["i_k"] != len(groups) or len(groups) != len(ex.groups):
        return [f"{len(groups)} groups (i_k {blob['i_k']}), expected {len(ex.groups)}"]
    total = 0
    labels, factors = [], []
    for want, got in zip(ex.groups, groups):
        l = want["l"]
        if got["l"] != l or _q(got["cont_f"]) != want["cont_f"]:
            problems.append(f"group {l}: header {got['l']}, cont_f {got['cont_f']}")
        z_total, w_count = 0, 0
        for f in got["factors"]:
            labels.append(f["label"])
            factors.append(f)
            total += f["multiplicity"]
            problems.extend(_check_factor(ex, want, f))
            if f["kind"] == "Z":
                z_total += f["multiplicity"]
            else:
                w_count += 1
        z_labels = [f["label"] for f in got["factors"] if f["kind"] == "Z"]
        w_labels = [f["label"] for f in got["factors"] if f["kind"] == "W"]
        if z_labels != [f"z^({l})_{j}" for j in range(1, len(z_labels) + 1)] or \
                w_labels != [f"w^({l})_{j}" for j in range(1, len(w_labels) + 1)]:
            problems.append(f"group {l}: labels out of order")
        if w_count != want["w_count"]:
            problems.append(f"group {l}: {w_count} W-factors, expected {want['w_count']}")
        if z_total != want["z_mult_total"]:
            problems.append(f"group {l}: Z multiplicities sum to {z_total}, "
                            f"expected {want['z_mult_total']}")
    if total != ex.b0 - ex.k or blob["multiplicity_total"] != total:
        problems.append(f"multiplicities sum to {total} (reported "
                        f"{blob['multiplicity_total']}), expected b0-k = {ex.b0 - ex.k}")
    problems.extend(_check_contacts(labels, factors, blob["pairwise_contacts"]))
    return problems


def _check_factor(ex: Expectation, group: dict, f: dict) -> list:
    l, nsub, cont_f = group["l"], group["nsub"], group["cont_f"]
    prefix = ex.prefix(l)
    where = f"factor {f['label']}"
    if f["group"] != l or _q(f["cont_f"]) != cont_f:
        return [f"{where}: group {f['group']}, cont_f {f['cont_f']}"]
    semi = _q(f["cont_semiroot"])
    chars = [_q(c) for c in f["char"]]
    if f["kind"] == "W":
        ok = (f["part"] is None and f["multiplicity"] == group["w_mult"]
              and semi == cont_f and chars == prefix + [cont_f])
    else:
        m_j, n_j = f["part"]
        ok = (f["multiplicity"] == nsub * n_j and semi == Fraction(m_j, nsub * n_j)
              and semi > cont_f and chars == prefix + ([semi] if n_j > 1 else []))
    return [] if ok else [f"{where}: inconsistent {f}"]


def _check_contacts(labels, factors, table) -> list:
    """Same group: min of the semiroot contacts; otherwise min of the contacts
    with f.  One row per pair, in label order."""
    n = len(factors)
    if len(table) != n * (n - 1) // 2:
        return [f"{len(table)} pairwise contacts for {n} factors"]
    # The expected entry is the factor's own rational, in the same notation;
    # ranks stand in for the rationals so the quadratic loop compares ints.
    def ranked(key):
        values = [_q(f[key]) for f in factors]
        order = {v: r for r, v in enumerate(sorted(set(values)))}
        return [(order[v], f[key]) for v, f in zip(values, factors)]

    semi, cont_f = ranked("cont_semiroot"), ranked("cont_f")
    group = [f["group"] for f in factors]
    rows = iter(table)
    for i in range(n):
        label_i, group_i, semi_i, cont_i = labels[i], group[i], semi[i], cont_f[i]
        for j in range(i + 1, n):
            a, b, c = next(rows)
            if group_i == group[j]:
                want = semi_i if semi_i[0] <= semi[j][0] else semi[j]
            else:
                want = cont_i if cont_i[0] <= cont_f[j][0] else cont_f[j]
            if c != want[1] or a != label_i or b != labels[j]:
                return [f"pairwise contact {a},{b} = {c}, expected "
                        f"{label_i},{labels[j]} = {want[1]}"]
    return []


_TEXT_HEAD = re.compile(r"^class K\(([\d,]+)\), k = (\d+): d\^(\d+)f/dy\^(\d+) = (.*)$")
_TEXT_GROUP = re.compile(r"^group (\d+): cont\(f, v\) = (\S+) for every irreducible factor v$")
_TEXT_FACTOR = re.compile(
    r"^  - ([zw])\^\((\d+)\)_(\d+): mult (\d+), cont\(f_(\d+), \.\) = (\S+), (.*)$")
_TEXT_TOTAL = re.compile(r"^total multiplicity (\d+) = b0 - k$")


def check_text(ex: Expectation, out: str) -> list:
    lines = out.rstrip("\n").split("\n")
    head = _TEXT_HEAD.match(lines[0])
    want_head = (",".join(map(str, ex.char)), str(ex.k), str(ex.k), str(ex.k),
                 " * ".join(f"G^({g['l']})" for g in ex.groups))
    if not head or head.groups() != want_head:
        return [f"header {lines[0]!r}"]
    total = _TEXT_TOTAL.match(lines[-1])
    if not total or int(total.group(1)) != ex.b0 - ex.k:
        return [f"total line {lines[-1]!r}, expected {ex.b0 - ex.k}"]
    by_group: dict = {}
    current = None
    for line in lines[1:-1]:
        g = _TEXT_GROUP.match(line)
        if g:
            current = int(g.group(1))
            want = ex.groups[current - 1] if current <= len(ex.groups) else None
            if want is None or _q(g.group(2)) != want["cont_f"] or current in by_group:
                return [f"group line {line!r}"]
            by_group[current] = {"Z": 0, "W": 0, "z_mult": 0, "w_mult": 0}
            continue
        fm = _TEXT_FACTOR.match(line)
        if not fm or current is None or int(fm.group(2)) != current or int(fm.group(5)) != current:
            return [f"factor line {line!r}"]
        kind = fm.group(1).upper()
        acc = by_group[current]
        acc[kind] += 1
        if int(fm.group(3)) != acc[kind]:
            return [f"factor line {line!r} out of order"]
        acc["z_mult" if kind == "Z" else "w_mult"] += int(fm.group(4))
    problems = []
    if sorted(by_group) != [g["l"] for g in ex.groups]:
        problems.append(f"groups {sorted(by_group)}, expected {len(ex.groups)}")
    for want in ex.groups:
        acc = by_group.get(want["l"], {"Z": 0, "W": 0, "z_mult": 0, "w_mult": 0})
        if acc["W"] != want["w_count"] or acc["w_mult"] != want["w_count"] * want["w_mult"] \
                or acc["z_mult"] != want["z_mult_total"]:
            problems.append(f"group {want['l']}: {acc}, expected {want}")
    return problems


_DOT_NODE = re.compile(r'^  (n\d+) \[label="([^"]*)", shape=(none|circle|point)(, width=0\.1)?\];$')
_DOT_EDGE = re.compile(r'^  (n\d+) -> (n\d+) \[label="(\d+)", dir=none\];$')
_DOT_FACTOR = re.compile(r"^([zw])\^\((\d+)\)_(\d+) \(mult (\d+)\)$")
_DOT_HEAD = ["digraph eggers_wall {", "  rankdir=BT;", "  node [fontsize=11];"]


def check_dot(ex: Expectation, out: str) -> list:
    """Eggers-Wall tree: one leaf per factor plus f and its h semiroots, a
    tree rooted at n0 whose contacts grow along every path, and every factor
    of group l hanging below the node at contact b_l/b0."""
    lines = out.rstrip("\n").split("\n")
    if lines[:3] != _DOT_HEAD or lines[-1] != "}":
        return ["not an eggers_wall digraph"]
    nodes, parent, children = {}, {}, {}
    for line in lines[3:-1]:
        node = _DOT_NODE.match(line)
        edge = _DOT_EDGE.match(line)
        if node and node.group(1) not in nodes:
            nodes[node.group(1)] = (node.group(2), node.group(3))
        elif edge and edge.group(1) in nodes and edge.group(2) in nodes \
                and edge.group(2) not in parent:
            parent[edge.group(2)] = edge.group(1)
            children.setdefault(edge.group(1), []).append(edge.group(2))
        else:
            return [f"unexpected line {line!r}"]
    if nodes.get("n0", (None, None))[1] != "point" or set(parent) != set(nodes) - {"n0"}:
        return ["not a tree rooted at n0"]

    leaves = [name for name, (_, shape) in nodes.items() if shape == "none"]
    if any(children.get(name) for name in leaves) or \
            any(not children.get(name) for name, (_, s) in nodes.items() if s != "none"):
        return ["leaves and inner nodes are mixed up"]

    def path_contacts(name):
        out, cur = [], parent.get(name)
        while cur is not None and cur != "n0" and len(out) <= len(nodes):
            out.append(_q(nodes[cur][0]))
            cur = parent.get(cur)
        return out[::-1] if cur == "n0" else None

    problems = []
    want_names = ["f"] + [f"f_{l}" for l in range(1, ex.h + 1)]
    seen_names = sorted(nodes[name][0] for name in leaves if not _DOT_FACTOR.match(nodes[name][0]))
    if seen_names != sorted(want_names):
        problems.append(f"branch leaves {seen_names}, expected {sorted(want_names)}")
    per_group = {g["l"]: {"z": [], "w": [], "z_mult": 0, "w_mult": 0} for g in ex.groups}
    total = 0
    for name in leaves:
        fm = _DOT_FACTOR.match(nodes[name][0])
        if not fm:
            continue
        kind, l, idx, mult = fm.group(1), int(fm.group(2)), int(fm.group(3)), int(fm.group(4))
        if l not in per_group:
            problems.append(f"leaf {nodes[name][0]} in no predicted group")
            continue
        per_group[l][kind].append(idx)
        per_group[l][kind + "_mult"] += mult
        total += mult
        contacts = path_contacts(name)
        cont_f = ex.groups[l - 1]["cont_f"]
        if contacts is None:
            return [f"leaf {nodes[name][0]} is not connected to n0"]
        if any(a >= b for a, b in zip(contacts, contacts[1:])) or cont_f not in contacts:
            problems.append(f"leaf {nodes[name][0]} hangs on contacts {contacts}")
    for want in ex.groups:
        acc = per_group[want["l"]]
        for kind in ("z", "w"):
            if sorted(acc[kind]) != list(range(1, len(acc[kind]) + 1)):
                problems.append(f"group {want['l']}: {kind}-leaves {sorted(acc[kind])}")
        if len(acc["w"]) != want["w_count"] or acc["w_mult"] != want["w_count"] * want["w_mult"] \
                or acc["z_mult"] != want["z_mult_total"]:
            problems.append(f"group {want['l']}: leaves {acc}, expected {want}")
    if total != ex.b0 - ex.k:
        problems.append(f"leaf multiplicities sum to {total}, expected {ex.b0 - ex.k}")
    return problems


def check_report(query, blob: dict) -> list:
    """A verify report must PASS on the witnesses asked for, with every
    checked level consistent, and carry a correct prediction."""
    ex = Expectation(query.char, query.k)
    if blob["verdict"] != "PASS":
        return [f"verdict {blob['verdict']}"]
    if blob["char"] != list(query.char) or blob["k"] != query.k:
        return [f"report for K{blob['char']} k={blob['k']}"]
    runs = blob["runs"]
    seeds = [run["seed"] for run in runs]
    problems = []
    if blob["seeds"] != seeds or seeds[:len(query.seeds)] != list(query.seeds):
        problems.append(f"seeds {blob['seeds']} / runs {seeds}, asked {list(query.seeds)}")
    statuses = [run["status"] for run in runs]
    if "fail" in statuses or blob["degenerate_count"] != statuses.count("degenerate"):
        problems.append(f"run statuses {statuses}, degenerate_count {blob['degenerate_count']}")
    passing = [run for run in runs if run["seed"] == blob["passing_seed"]]
    want_levels = [g["l"] for g in ex.groups]
    if len(passing) != 1 or passing[0]["status"] != "pass":
        problems.append(f"passing seed {blob['passing_seed']} has no passing run")
    else:
        levels = passing[0]["levels"]
        if [lv["l"] for lv in levels] != want_levels:
            problems.append(f"checked levels {[lv['l'] for lv in levels]}, expected {want_levels}")
        for lv in levels:
            if (lv["status"], lv["initial_form_ok"], lv["prediction_match"],
                    lv["aggregate_edge"]["ok"]) != ("ok", True, True, True):
                problems.append(f"level {lv['l']} of the passing run is not clean")
    return problems + check_prediction(ex, blob["prediction"])
