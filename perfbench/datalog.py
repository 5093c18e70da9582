"""Seeded Datalog programs over random graphs, with their least models.

Three families: triangle closure, a wide ternary join and recursive
transitive closure. Each generator returns the program text and the answers
any correct engine must give, computed here with plain Python sets -- not
with the engine under test. For a Datalog program the restricted and the
core chase both end in the least model, whatever order the triggers run in,
so the expected values hold under every trigger order:

* ``result_size``: facts plus derived atoms (no atom is ever retracted);
* ``steps``: one rule application per derived atom;
* ``queries``: "entailed" / "not entailed" for Boolean queries, the number
  of certain answers for queries with answer variables.
"""

import random


def _edges(rng, nodes, count):
    count = min(count, nodes * (nodes - 1))
    edges = set()
    while len(edges) < count:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def _succ(pairs):
    out = {}
    for a, b in pairs:
        out.setdefault(a, set()).add(b)
    return out


def triangles(edges):
    """tri(X,Z) :- e(X,Y), e(Y,Z), e(X,Z)."""
    succ = _succ(edges)
    edge_set = set(edges)
    return {(x, z) for x, y in edges for z in succ.get(y, ())
            if (x, z) in edge_set}


def wide_join(rows):
    """j(X,W) :- r(X,Y,Z), r(Z,Y,W)."""
    by_first_second = {}
    for x, y, z in rows:
        by_first_second.setdefault((x, y), set()).add(z)
    return {(x, w) for x, y, z in rows for w in by_first_second.get((z, y), ())}


def transitive_closure(edges):
    """t(X,Y) :- e(X,Y).  t(X,Z) :- t(X,Y), e(Y,Z)."""
    succ = _succ(edges)
    closure = set()
    for start in succ:
        seen, frontier = set(), [start]
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure.update((start, reached) for reached in seen)
    return closure


def _facts(pred, prefix, tuples):
    return " ".join(
        "%s(%s)." % (pred, ", ".join("%s%d" % (prefix, v) for v in t))
        for t in tuples)


def _answers(pairs, source):
    return sum(1 for a, _ in pairs if a == source)


def _program(fact_text, rules, fact_count, derived, pred, prefix, probe):
    """Program text plus expectations; queries probe node ``probe``."""
    has_loop = any(a == b for a, b in derived)
    text = "\n".join([fact_text] + rules + [
        "? :- %s(%s%d, X)." % (pred, prefix, probe),
        "? :- %s(X, X)." % pred,
        "?(X) :- %s(%s%d, X)." % (pred, prefix, probe),
    ]) + "\n"
    expect = {
        "stop": "fixpoint",
        "result_size": fact_count + len(derived),
        "steps": len(derived),
        "queries": [
            "entailed" if _answers(derived, probe) else "not entailed",
            "entailed" if has_loop else "not entailed",
            _answers(derived, probe),
        ],
    }
    return text, expect


def _relabel(tuples, domain, rng):
    """Renames the constants by a random permutation of ``domain``."""
    perm = list(range(domain))
    rng.shuffle(perm)
    return sorted(tuple(perm[v] for v in t) for t in tuples)


def _triangle_program(nodes, edge_count, rng, names):
    edges = _relabel(_edges(rng, nodes, edge_count), nodes, names)
    return _program(_facts("e", "n", edges),
                    ["[tri] tri(X, Z) :- e(X, Y), e(Y, Z), e(X, Z)."],
                    len(edges), triangles(edges), "tri", "n", edges[0][0])


def _join_program(values, row_count, rng, names):
    rows = set()
    while len(rows) < row_count:
        rows.add(tuple(rng.randrange(values) for _ in range(3)))
    rows = _relabel(rows, values, names)
    return _program(_facts("r", "c", rows),
                    ["[join] j(X, W) :- r(X, Y, Z), r(Z, Y, W)."],
                    len(rows), wide_join(rows), "j", "c", rows[0][0])


def _tc_program(nodes, rng, names):
    edges = _relabel(_edges(rng, nodes, 2 * nodes), nodes, names)
    return _program(_facts("e", "n", edges),
                    ["[base] t(X, Y) :- e(X, Y).",
                     "[step] t(X, Z) :- t(X, Y), e(Y, Z)."],
                    len(edges), transitive_closure(edges), "t", "n",
                    edges[0][0])


def make(family, size, structure_seed, label_seed):
    """One program of ``family`` at relative size ``size`` in [0, 1).

    ``structure_seed`` draws the graph (or relation); ``label_seed``
    renames its constants, which reorders the facts and the term ids.
    Programs that share a structure seed are isomorphic: they cost the
    engine the same work up to order.
    """
    rng = random.Random(structure_seed)
    names = random.Random(label_seed)
    if family == "tri":
        return _triangle_program(300, int(700 + 1700 * size), rng, names)
    if family == "join":
        return _join_program(40, int(250 + 850 * size), rng, names)
    if family == "tc":
        return _tc_program(int(14 + 28 * size), rng, names)
    raise ValueError("unknown Datalog family: %s" % family)


def make_large(family, structure_seed, label_seed):
    """A program of ``family`` near the memory cap: at default options the
    CLI peaks at about 1.2 GB on either (2,000 triangle edges over 100
    nodes; 3,000 join rows over 40 values)."""
    rng = random.Random(structure_seed)
    names = random.Random(label_seed)
    if family == "tri":
        return _triangle_program(100, 2000, rng, names)
    if family == "join":
        return _join_program(40, 3000, rng, names)
    raise ValueError("no large Datalog family: %s" % family)


FAMILIES = ("tri", "join", "tc")
