"""Run one cm-lab request with spans around the public functions of each
module, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS.json REQUEST_ID -- check FILE --method oracle

The program source is not touched: each wrapped function is rebound in
every cmlab module that holds it (``satisfying.is_cm_complex``,
``cli.is_cm_ideal_oracle``, ...), and methods are replaced on their
class.  Spans stay in memory as (name, start ns, end ns, parent span,
extra) and are written when the request ends, with the public
``cache_info()`` of the two homology caches.  ``extra`` carries the count
measured at that boundary: matrix entries for a rank, 1 for a cache miss
of ``is_cm_complex``, trees built by ``relation_trees``, 1 for an
accepted quasi-tree table, and [lcms formed, generators kept] for an
intersection.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cmlab  # noqa: E402
from cmlab import cli, complexes, graphs, homology, ideals, satisfying, structure  # noqa: E402

names: list[str] = []
spans: list = []
stack: list[int] = []


def span(name: str, fn, extra=None):
    """A wrapper that records a span around every call of ``fn``.
    ``extra(args, result)`` computes the span's count, if any."""
    name_i = len(names)
    names.append(name)
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        k = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(k)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[k] = [name_i, start, end, parent, 0]
        if extra is not None:
            spans[k][4] = extra(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def cached_span(name: str, fn, on_miss):
    """A span around an ``lru_cache`` function whose extra is
    ``on_miss(result)`` when the call missed the cache, else 0.  A miss
    shows as a new miss in the public ``cache_info()``."""

    def call(*args, **kwargs):
        before = fn.cache_info().misses
        result = fn(*args, **kwargs)
        return result, on_miss(result) if fn.cache_info().misses > before else 0

    traced = span(name, call, lambda args, out: out[1])
    return lambda *args, **kwargs: traced(*args, **kwargs)[0]


def rebind(original, wrapper) -> None:
    for module in (cmlab, cli, complexes, graphs, homology, ideals, satisfying, structure):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> None:
    for name, fn, extra in (
        ("cli.main", cli.main, None),
        ("cli.resolve", cli.resolve_source, None),
        ("homology.boundary", homology.boundary_matrix, None),
        ("homology.ranks", homology.reduced_homology_ranks, None),
        ("homology.oracle", homology.is_cm_ideal_oracle, None),
        ("graphs.facet_graph", graphs.facet_graph, None),
        ("graphs.vertex_graph", graphs.vertex_graph, None),
        ("graphs.root_orientation", graphs.root_orientation, None),
        ("structure.find_shelling", structure.find_shelling, None),
        ("structure.find_leaf_order", structure.find_leaf_order, None),
        ("satisfying.tree", satisfying.is_tree_satisfying, None),
        ("satisfying.quasitree", satisfying.is_quasitree_satisfying,
         lambda args, result: int(result.satisfied)),
        ("satisfying.general", satisfying.is_general_satisfying, None),
        ("ideals.expand", ideals.expand_ideal, None),
    ):
        rebind(fn, span(name, fn, extra))

    rebind(homology.is_cm_complex, cached_span("homology.reisner", homology.is_cm_complex, lambda r: 1))
    rebind(graphs.relation_trees, cached_span("graphs.relation_trees", graphs.relation_trees, len))

    cx_cls = complexes.SimplicialComplex
    cx_cls.link = span("complexes.link", cx_cls.link)
    for attr in ("all_faces", "faces_of_dim", "f_vector"):
        setattr(cx_cls, attr, span("complexes.faces", getattr(cx_cls, attr)))
    complexes.MultiplicityAssignment.__post_init__ = span(
        "complexes.table", complexes.MultiplicityAssignment.__post_init__
    )

    rank = homology.ExactMatrix.rank
    rank0 = span("homology.rank.char0", rank, lambda args, result: args[0].nrows * args[0].ncols)
    rankp = span("homology.rank.charp", rank, lambda args, result: args[0].nrows * args[0].ncols)
    homology.ExactMatrix.rank = lambda self: (rankp if self.field.characteristic else rank0)(self)

    ideals.MonomialIdeal.intersect = span(
        "ideals.intersect",
        ideals.MonomialIdeal.intersect,
        lambda args, result: [
            len(args[0].generators) * len(args[1].generators),
            len(result.generators),
        ],
    )


def main() -> int:
    span_path, request_id = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    caches = {
        "homology.ranks": homology.reduced_homology_ranks,
        "homology.reisner": homology.is_cm_complex,
    }
    install()
    try:
        return cli.main(argv)
    finally:
        Path(span_path).write_text(json.dumps({
            "request": request_id,
            "names": names,
            "spans": spans,
            "caches": {name: fn.cache_info()[:2] for name, fn in caches.items()},
        }))


if __name__ == "__main__":
    sys.exit(main())
