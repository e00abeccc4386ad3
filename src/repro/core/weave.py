"""Tuple path weaving (Algorithms 5–6) and its schema-level twin.

"Weaving" merges a pairwise path onto a base path at their shared
projection key: the two vertices projecting that key must carry the
same source tuple; the traversal then walks the pairwise path, fusing
each vertex with a matching unvisited neighbor of the base, and attaches
whatever fails to fuse as a new tail (Example 6 of the paper).

One deliberate generalisation over the paper's pseudocode: when several
fusion choices exist (the same tuple can legitimately appear twice among
the base's neighbors — e.g. a person who both directed and wrote the
same movie), the paper's greedy "take the next adjacent vertex" can fuse
the wrong occurrence and miss a valid result.  We explore every fusion
choice and return *all* outcomes; canonical-signature deduplication
keeps the result set tight.

The attach-a-tail option is, by default, only taken when fusion *fails*
— exactly Algorithm 6.  ``exhaustive=True`` additionally explores the
attach option where fusion would succeed; that extends coverage to
mappings that keep two copies of the same tuple as distinct vertices,
but those mappings are homomorphically redundant (their output always
contains the fused mapping's), so they can never be pruned by samples
and are excluded from the interactive default.  See
``TPWConfig.exhaustive_weave``.

Every generalisation only ever *adds* sound outcomes: each edge of a
woven path comes from the base or from the (instance-verified) pairwise
path, so Lemma 1 soundness is preserved.

Level by level, the weave keeps each woven path as a plain-data entry
(:class:`_Base`) derived from the base and outcome that produced it, and
finds every outcome with one walk over the base's per-vertex token
index (:func:`_fusions`).  Outcomes are signed before anything is built;
a validated :class:`~repro.core.tuple_path.TuplePath` is built only for
a path the weave hands out.

The same merge logic runs at the schema level (vertex compatibility =
same relation instead of same tuple) to enumerate complete mapping
paths for the naive baseline of Section 6.3, guaranteeing that TPW and
the baseline explore exactly the same mapping family.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import NamedTuple

from repro.config import TPWConfig
from repro.core.canonical import Signature, encode_tree, tree_centres
from repro.core.mapping_path import MappingPath
from repro.core.stats import SearchStats
from repro.core.tuple_path import TuplePath
from repro.obs import get_metrics, get_tracer
from repro.obs.explain import NULL_EXPLAIN
from repro.obs.metrics import COUNT_BUCKETS
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.resilience.budget import NULL_BUDGET

#: Vertex → neighbor token → the neighbors carrying it, in edge order.
TokenIndex = dict[int, dict[Hashable, list[int]]]


class _WeaveOutcome(NamedTuple):
    """One way of merging a pairwise path onto a base path.

    The pairwise chain's first ``position`` vertices fused with a path
    of base vertices ending at ``vertex``; the rest, if any, are
    attached as a new tail hanging off ``vertex``.  With nothing left to
    attach (``position == len(sequence)``), the woven path is the base
    itself and ``vertex`` projects the far key.
    """

    vertex: int
    position: int


def _token_index(
    neighbors: Mapping[int, Sequence[int]], token: Callable[[int], Hashable]
) -> TokenIndex:
    """Each vertex's neighbors grouped by their token, order kept."""
    index: TokenIndex = {}
    for vertex, adjacent in neighbors.items():
        by_token = index[vertex] = {}
        for neighbor in adjacent:
            by_token.setdefault(token(neighbor), []).append(neighbor)
    return index


def _fusions(
    index: TokenIndex,
    anchor: int,
    pair_tokens: Sequence[Hashable],
    exhaustive: bool,
) -> list[_WeaveOutcome]:
    """Every merge of a chain with ``pair_tokens`` onto a base at
    ``anchor``, whose token ``pair_tokens[0]`` is known to match."""
    outcomes: list[_WeaveOutcome] = []
    _fuse(index, anchor, None, pair_tokens, 1, exhaustive, outcomes)
    return outcomes


def _fuse(
    index: TokenIndex,
    vertex: int,
    previous: int | None,
    pair_tokens: Sequence[Hashable],
    position: int,
    exhaustive: bool,
    outcomes: list[_WeaveOutcome],
) -> None:
    """Walk the chain from ``position`` on, fused so far up to
    ``vertex`` (reached from ``previous``), appending its outcomes.

    The walk steps while exactly one neighbor can fuse the next chain
    vertex and recurses only where several can.  Along a path in a
    tree, the only visited neighbor of ``vertex`` is ``previous``.
    """
    last = len(pair_tokens)
    while position < last:
        fusable = index[vertex].get(pair_tokens[position], ())
        if previous in fusable:
            fusable = [neighbor for neighbor in fusable if neighbor != previous]
        if not fusable:
            break
        if exhaustive:
            outcomes.append(_WeaveOutcome(vertex, position))
        position += 1
        if len(fusable) > 1:
            for neighbor in fusable:
                _fuse(
                    index, neighbor, vertex, pair_tokens, position, exhaustive,
                    outcomes,
                )
            return
        previous, vertex = vertex, fusable[0]
    # Fused to the chain's end (Alg. 6's "successful merge" case), or
    # the tail from ``position`` on attaches at ``vertex``.
    outcomes.append(_WeaveOutcome(vertex, position))


def _merge_choices(
    base: JoinTree | Mapping[int, Sequence[int]],
    base_anchor: int,
    token_base: Callable[[int], Hashable],
    pair_tokens: Sequence[Hashable],
    exhaustive: bool,
) -> list[_WeaveOutcome]:
    """Every merge of a pairwise chain onto ``base`` at its anchor.

    ``base`` is the base's neighbor lists (vertex → neighbor ids) or
    its tree.  ``pair_tokens`` are the chain's vertex tokens in order
    from the vertex projecting the shared key; the anchors' tokens are
    known to agree.
    """
    neighbors = _neighbor_ids(base) if isinstance(base, JoinTree) else base
    return _fusions(
        _token_index(neighbors, token_base), base_anchor, pair_tokens, exhaustive
    )


def _neighbor_ids(tree: JoinTree) -> dict[int, list[int]]:
    """Vertex → its neighbors' ids, in ``tree``'s edge order."""
    neighbors: dict[int, list[int]] = {vertex: [] for vertex in tree.vertices}
    for edge in tree.edges:
        neighbors[edge.u].append(edge.v)
        neighbors[edge.v].append(edge.u)
    return neighbors


def _build_tree(
    base_tree: JoinTree,
    pair_tree: JoinTree,
    sequence: tuple[tuple[int, JoinTreeEdge | None], ...],
    outcome: _WeaveOutcome,
) -> tuple[JoinTree, int]:
    """The woven tree and its far vertex.

    Attached vertices are numbered after the base's largest vertex id.
    """
    previous_result, position = outcome
    if position == len(sequence):
        return base_tree, previous_result
    next_id = max(base_tree.vertices) + 1
    vertices = dict(base_tree.vertices)
    edges = list(base_tree.edges)
    for index in range(position, len(sequence)):
        pair_vertex, edge = sequence[index]
        assert edge is not None  # only the anchor has no parent edge
        result_vertex = next_id + index - position
        vertices[result_vertex] = pair_tree.relation_of(pair_vertex)
        source_vertex = (
            result_vertex if edge.source_vertex == pair_vertex else previous_result
        )
        edges.append(
            JoinTreeEdge(
                u=previous_result,
                v=result_vertex,
                fk_name=edge.fk_name,
                source_vertex=source_vertex,
            )
        )
        previous_result = result_vertex
    return JoinTree(vertices, edges), previous_result


def _far_key(pair_projections: dict[int, tuple[int, str]], shared_key: int) -> int:
    for key in pair_projections:
        if key != shared_key:
            return key
    raise ValueError("pairwise path does not have a second key")


def weave_tuple_paths(
    base: TuplePath, pair: TuplePath, shared_key: int, *, exhaustive: bool = False
) -> list[TuplePath]:
    """All tuple paths obtainable by weaving ``pair`` onto ``base``.

    Preconditions: ``pair`` is pairwise, and the two paths' key sets
    intersect exactly on ``shared_key``.
    """
    partner = _Partner(pair, shared_key)
    prepared = _Base(base)
    vertex, attribute = base.projections[shared_key]
    if pair.projections[shared_key][1] != attribute:
        return []
    if partner.tokens[0] != prepared.tokens[vertex]:
        return []
    return [
        prepared.build(partner, outcome)
        for outcome in _fusions(prepared.index, vertex, partner.tokens, exhaustive)
    ]


def weave_mapping_paths(
    base: MappingPath,
    pair: MappingPath,
    shared_key: int,
    *,
    exhaustive: bool = True,
) -> list[MappingPath]:
    """Schema-level weave: merge on relation names instead of tuples.

    Used by the naive baseline to enumerate the complete mapping path
    family without looking at the instance.  Defaults to exhaustive
    because relation names collide far more often than tuples do, and
    the enumeration must cover every structure the instance-level weave
    can produce (two relation occurrences that greedy schema fusion
    would merge may hold *different* tuples at the instance level).
    """
    far_key = _far_key(pair.projections, shared_key)
    far_attr = pair.projections[far_key][1]
    base_anchor, base_attr = base.projections[shared_key]
    pair_anchor, pair_attr = pair.projections[shared_key]
    if base_attr != pair_attr:
        return []
    if base.tree.relation_of(base_anchor) != pair.tree.relation_of(pair_anchor):
        return []
    # A pairwise path is a simple path with the shared key at one end,
    # so a BFS order from that end is the chain order.
    sequence = pair.tree.traversal_order(pair_anchor)
    pair_tokens = [pair.tree.relation_of(vertex) for vertex, _edge in sequence]
    results = []
    for outcome in _merge_choices(
        base.tree, base_anchor, base.tree.relation_of, pair_tokens, exhaustive
    ):
        tree, far_vertex = _build_tree(base.tree, pair.tree, sequence, outcome)
        projections = dict(base.projections)
        projections[far_key] = (far_vertex, far_attr)
        results.append(MappingPath(tree, projections))
    return results


class _Partner:
    """A pairwise tuple path prepared for weaving at one of its keys.

    Holds what every (base, pair) weave would otherwise recompute: the
    far key, the chain's vertex tokens from the shared key's vertex, and
    ``tails[position]``, the ``(relation, row, fk name, orientation from
    the predecessor)`` of each chain vertex from ``position`` on — what
    an outcome at ``position`` attaches to the base (nothing for the
    fully fused one).
    """

    __slots__ = ("far_key", "far_attr", "tokens", "tails")

    def __init__(self, path: TuplePath, shared_key: int) -> None:
        self.far_key = _far_key(path.projections, shared_key)
        self.far_attr = path.projections[self.far_key][1]
        sequence = path.tree.traversal_order(path.projections[shared_key][0])
        self.tokens = [path.tuple_at(vertex) for vertex, _edge in sequence]
        steps = []
        for index in range(1, len(sequence)):
            vertex, edge = sequence[index]
            previous = sequence[index - 1][0]
            # A pairwise path is a chain: each vertex hangs off the last.
            assert edge is not None and edge.other(vertex) == previous
            orientation = "down" if edge.source_vertex == previous else "up"
            steps.append((*self.tokens[index], edge.fk_name, orientation))
        # Position 0 never occurs: the anchors always fuse.
        self.tails = [()] + [tuple(steps[index:]) for index in range(len(steps) + 1)]


class _Base:
    """A level entry: one woven tuple path kept as plain data.

    An entry holds what the next level reads from its path: the
    vertices, the edges as ``(u, v, fk name, source vertex)``, the
    rows, the vertex labels (as :meth:`TuplePath.vertex_labels`), the
    projections in key order, ``triples`` and ``next_id``, the id the
    first attached vertex takes.  :meth:`child` derives the next level's
    entries from it, and :meth:`build_path` builds the validated tuple
    path only for an entry the weave hands out.

    ``triples`` is the path's edge-triple set when its labels are
    distinct (see :mod:`repro.core.canonical`), else ``None``.  A woven
    outcome's signature is derived from it: fusing all the way relabels
    the vertex that takes the far projection, and a tail adds its own
    triples.  Only an outcome with a repeated label, or with a single
    vertex, is encoded from scratch.

    :meth:`prepare` builds what weaving this base reads — the vertex
    tokens, neighbor lists, the token index, each vertex's incident
    ``(source, fk name, target)`` edges, the label set and the
    ``signatures`` memo — and :meth:`release` drops it, so only the
    base being woven holds it.  The memo keeps woven signatures by what
    the outcome adds to this base: many (pair, fusion) choices add the
    same projection at the same vertex, or the same tail at the same
    vertex.  An entry made from a tuple path is prepared at once.
    """

    __slots__ = (
        "path", "vertices", "edges", "rows", "labels", "projections",
        "triples", "next_id",
        "tokens", "neighbors", "index", "incident", "label_set", "shape",
        "signatures",
    )

    def __init__(self, path: TuplePath) -> None:
        self.path = path
        self.vertices = path.tree.vertices
        self.edges = tuple(
            (edge.u, edge.v, edge.fk_name, edge.source_vertex)
            for edge in path.tree.edges
        )
        self.rows = path.rows
        labels = self.labels = path.vertex_labels()
        self.projections = path.projections
        self.next_id = max(self.vertices) + 1
        self.prepare()
        self.triples = (
            frozenset(
                self._triples(
                    [edge for edges in self.incident.values() for edge in edges]
                )
            )
            if len(self.label_set) == len(labels)
            else None
        )

    def prepare(self) -> _Base:
        """Build the data weaving this base reads; returns ``self``."""
        rows = self.rows
        tokens = self.tokens = {
            vertex: (relation, rows[vertex])
            for vertex, relation in self.vertices.items()
        }
        neighbors = self.neighbors = {vertex: [] for vertex in tokens}
        incident = self.incident = {vertex: [] for vertex in tokens}
        for u, v, fk_name, source in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
            directed = (source, fk_name, v if source == u else u)
            incident[u].append(directed)
            incident[v].append(directed)
        self.index = _token_index(neighbors, tokens.__getitem__)
        self.label_set = set(self.labels.values())
        self.shape = None
        self.signatures: dict[tuple, Signature] = {}
        return self

    def release(self) -> None:
        """Drop what :meth:`prepare` built."""
        self.tokens = self.neighbors = self.index = self.incident = None
        self.label_set = self.shape = self.signatures = None

    def _triples(
        self,
        edges: Sequence[tuple[int, str, int]],
        vertex: int | None = None,
        label: Hashable = None,
    ) -> list[tuple[Hashable, str, Hashable]]:
        """The label triples of ``edges``, with ``vertex`` relabeled
        ``label`` if given."""
        labels = self.labels
        return [
            (
                label if source == vertex else labels[source],
                fk_name,
                label if target == vertex else labels[target],
            )
            for source, fk_name, target in edges
        ]

    def signature_of(self, partner: _Partner, outcome: _WeaveOutcome) -> Signature:
        """The woven path's signature, computed without building it.

        Equal to ``signature()`` of the tuple path :meth:`build` makes.
        """
        vertex, position = outcome
        local = (vertex, partner.far_key, partner.far_attr, partner.tails[position])
        signature = self.signatures.get(local)
        if signature is None:
            signature = self.signatures[local] = self._encode(*local)
        return signature

    def _encode(
        self, vertex: int, far_key: int, far_attr: str, tail: tuple
    ) -> Signature:
        """Signature of this base with ``tail`` attached at ``vertex``
        and the far projection on the tail's end (``vertex`` if none)."""
        if not tail:
            return self._encode_fused(vertex, far_key, far_attr)
        if self.triples is not None:
            # The far key is new, so the tail's end label is fresh; the
            # labels before it must not repeat one already there.
            fresh: list[tuple] = []
            triples = []
            previous = self.labels[vertex]
            last = len(tail) - 1
            for offset, (relation, row, fk_name, orientation) in enumerate(tail):
                if offset < last:
                    label = (relation, row, ())
                    if label in self.label_set or label in fresh:
                        break
                    fresh.append(label)
                else:
                    label = (relation, row, ((far_key, far_attr),))
                triples.append(
                    (previous, fk_name, label)
                    if orientation == "down"
                    else (label, fk_name, previous)
                )
                previous = label
            else:
                return self.triples.union(triples)
        labels = dict(self.labels)
        adjacency = {
            base_vertex: list(neighbors)
            for base_vertex, neighbors in self._shape()[0].items()
        }
        previous = vertex
        for offset, (relation, row, fk_name, orientation) in enumerate(tail):
            attached = self.next_id + offset
            labels[attached] = (relation, row, ())
            adjacency[previous].append((attached, fk_name, orientation))
            adjacency[attached] = [
                (previous, fk_name, "up" if orientation == "down" else "down")
            ]
            previous = attached
        labels[previous] = (relation, row, ((far_key, far_attr),))
        return encode_tree(labels, adjacency)

    def _encode_fused(self, vertex: int, far_key: int, far_attr: str) -> Signature:
        """Signature of this base with the far projection on ``vertex``."""
        label = self._projecting(vertex, far_key, far_attr)
        # No other vertex projects the far key, so ``label`` is new.
        if self.triples is not None and len(self.labels) > 1:
            incident = self.incident[vertex]
            return self.triples.difference(self._triples(incident)).union(
                self._triples(incident, vertex, label)
            )
        labels = dict(self.labels)
        labels[vertex] = label
        adjacency, centres = self._shape()
        return encode_tree(labels, adjacency, centres)

    def _projecting(self, vertex: int, far_key: int, far_attr: str) -> tuple:
        """``vertex``'s label with the far projection added."""
        relation, row, projected = self.labels[vertex]
        return (relation, row, tuple(sorted((*projected, (far_key, far_attr)))))

    def _shape(self) -> tuple[dict[int, list[tuple[int, str, str]]], list[int]]:
        """The base's adjacency and centres, built on first use."""
        if self.shape is None:
            adjacency = {
                vertex: [
                    (target, fk_name, "down")
                    if source == vertex
                    else (source, fk_name, "up")
                    for source, fk_name, target in edges
                ]
                for vertex, edges in self.incident.items()
            }
            self.shape = (adjacency, tree_centres(adjacency))
        return self.shape

    def child(
        self, partner: _Partner, outcome: _WeaveOutcome, signature: Signature
    ) -> _Base:
        """The unprepared entry of the path ``outcome`` weaves, whose
        signature is ``signature``.

        Vertex ids, edge order and dict order are those of weaving the
        built tuple paths: attached vertices are numbered from
        ``next_id`` and their edges and rows appended.
        """
        vertex, position = outcome
        far_key, far_attr = partner.far_key, partner.far_attr
        tail = partner.tails[position]
        labels = dict(self.labels)
        entry = _Base.__new__(_Base)
        entry.path = None
        if tail:
            vertices = dict(self.vertices)
            rows = dict(self.rows)
            edges = list(self.edges)
            previous = vertex
            for offset, (relation, row, fk_name, orientation) in enumerate(tail):
                attached = self.next_id + offset
                vertices[attached] = relation
                rows[attached] = row
                labels[attached] = (relation, row, ())
                source = previous if orientation == "down" else attached
                edges.append((previous, attached, fk_name, source))
                previous = attached
            labels[previous] = (relation, row, ((far_key, far_attr),))
            entry.vertices, entry.rows, entry.edges = vertices, rows, tuple(edges)
            far_vertex = previous
        else:
            # Entries are never modified, so the unchanged parts are shared.
            entry.vertices, entry.rows, entry.edges = (
                self.vertices, self.rows, self.edges
            )
            labels[vertex] = self._projecting(vertex, far_key, far_attr)
            far_vertex = vertex
        entry.labels = labels
        projections = dict(self.projections)
        projections[far_key] = (far_vertex, far_attr)
        entry.projections = dict(sorted(projections.items()))
        entry.next_id = self.next_id + len(tail)
        if isinstance(signature, frozenset):
            entry.triples = signature
        else:
            entry.triples = frozenset() if len(labels) == 1 else None
        return entry

    def build_path(self) -> TuplePath:
        """This entry's tuple path, through the validating constructors."""
        if self.path is not None:
            return self.path
        tree = JoinTree(self.vertices, [JoinTreeEdge(*edge) for edge in self.edges])
        return TuplePath(tree, self.rows, self.projections)

    def build(self, partner: _Partner, outcome: _WeaveOutcome) -> TuplePath:
        """The woven tuple path for ``outcome``."""
        return self.child(
            partner, outcome, self.signature_of(partner, outcome)
        ).build_path()


def _built(entries: Sequence[TuplePath | _Base]) -> list[TuplePath]:
    """The tuple paths of a level: pairwise paths as they are, woven
    entries built."""
    return [
        entry.build_path() if isinstance(entry, _Base) else entry
        for entry in entries
    ]


def weave_complete_tuple_paths(
    ptpm: dict[tuple[int, int], list[TuplePath]],
    target_size: int,
    config: TPWConfig,
    stats: SearchStats,
    tracer=None,
    explain=NULL_EXPLAIN,
    budget=NULL_BUDGET,
) -> list[TuplePath]:
    """Algorithm 5: build complete tuple paths level by level.

    Level ``n`` holds the distinct tuple paths of size ``n``; each level
    ``n + 1`` is produced by weaving every eligible pairwise tuple path
    (exactly one shared key) onto every level-``n`` path.  Statistics
    for Figures 12–13 and Table 4 are recorded on ``stats`` and, when
    ``tracer`` (default: the shared :mod:`repro.obs` handle) is live,
    mirrored onto one ``tpw.weave.level`` span per level.  ``explain``
    receives the fuse statistics — candidates in/out per level, how many
    woven paths were dominated (duplicate canonical signature), and a
    few dominated examples.

    The pairwise tuple paths enter unsigned: distinct pairwise mapping
    paths, and distinct rows within one, make them distinct by
    construction.

    ``budget`` is checked once per base path; on exhaustion the most
    advanced non-empty level is returned (partial tuple paths rank into
    partial candidate mappings downstream) with a ``weave`` degradation.
    """
    tracer = tracer or get_tracer()
    metrics = get_metrics()
    exhaustive = config.exhaustive_weave
    pairwise = [
        tuple_path for tuple_paths in ptpm.values() for tuple_path in tuple_paths
    ]
    stats.pairwise_tuple_paths = len(pairwise)
    if explain.enabled:
        explain.weave_entry(len(pairwise))

    # Index the pairwise paths by (key, tuple, attribute) so the inner
    # loop only sees weavable partners.
    anchor_index: dict[tuple, list[_Partner]] = {}
    for tuple_path in pairwise:
        for key, (vertex, attribute) in tuple_path.projections.items():
            anchor = (key, tuple_path.tuple_at(vertex), attribute)
            anchor_index.setdefault(anchor, []).append(_Partner(tuple_path, key))

    current: list[TuplePath] | list[_Base] = pairwise
    for size in range(2, target_size):
        with tracer.span("tpw.weave.level", level=size + 1) as level_span:
            next_level: dict[Signature, _Base] = {}
            woven = 0
            dominated_examples: list[str] = []
            bases_done = 0
            for entry in current:
                if budget.exhausted():
                    budget.stop(
                        "weave",
                        level=size + 1,
                        bases_done=bases_done,
                        bases_skipped=len(current) - bases_done,
                        levels_skipped=target_size - (size + 1),
                    )
                    # Anytime result: the most advanced non-empty level.
                    partial = list(next_level.values()) or current
                    level_span.set("woven", woven)
                    level_span.set("kept", len(partial))
                    complete = _built(partial)
                    stats.complete_tuple_paths = len(complete)
                    return complete
                bases_done += 1
                budget.charge()
                base = entry.prepare() if isinstance(entry, _Base) else _Base(entry)
                projections = base.projections
                for key, (vertex, attribute) in projections.items():
                    partners = anchor_index.get((key, base.tokens[vertex], attribute))
                    if partners is None:
                        continue
                    for partner in partners:
                        if partner.far_key in projections:
                            continue
                        # Sign each outcome first and derive an entry
                        # only for a new signature: most woven outcomes
                        # are duplicates.
                        for outcome in _fusions(
                            base.index, vertex, partner.tokens, exhaustive
                        ):
                            woven += 1
                            signature = base.signature_of(partner, outcome)
                            if signature not in next_level:
                                next_level[signature] = base.child(
                                    partner, outcome, signature
                                )
                            elif (
                                explain.enabled
                                and len(dominated_examples) < 3
                            ):
                                dominated_examples.append(
                                    base.build(partner, outcome).describe()
                                )
                base.release()
            stats.woven_per_level[size + 1] = woven
            stats.kept_per_level[size + 1] = len(next_level)
            level_span.set("woven", woven)
            level_span.set("kept", len(next_level))
            explain.level_fuse(
                level_span,
                level=size + 1,
                bases_in=len(current),
                woven=woven,
                kept=len(next_level),
                examples=dominated_examples,
            )
            metrics.counter("repro.weave.woven").inc(woven)
            metrics.histogram(
                "repro.weave.level_width", buckets=COUNT_BUCKETS
            ).observe(len(next_level))
        current = list(next_level.values())

    complete = _built(current)
    stats.complete_tuple_paths = len(complete)
    return complete
