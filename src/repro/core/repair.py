"""Incremental index repair under graph updates (the Section 6 open problem).

The paper's conclusion asks for index structures that survive *updates*.
This module repairs the whole Theorem 5.1 tower **ball-locally** instead
of rebuilding it, for both kinds of update: **edge** inserts and deletes,
and **color** flips (a vertex gains or loses a color):

* updates are **persistent**: :func:`repaired_impl` returns a *new*
  implementation tower sharing every untouched register with the old
  one, and the old tower is never mutated.  Concurrent readers keep
  answering against their generation; the engine swaps generations
  atomically (see :meth:`repro.core.engine.QueryIndex.insert_edge` and
  :meth:`~repro.core.engine.QueryIndex.add_color`);
* damage is localized by the Removal-Lemma argument: an edge on
  ``{u, v}`` can only change the ``r``-ball of vertices in
  ``N_r({u, v})`` (measured in the old *and* new graph), so only cover
  bags, kernels, distance entries and bag solvers whose neighborhoods
  intersect that ball are recomputed.  A color flip at ``v`` changes no
  ball at all — only what the vertices of ``N_r(v)`` see inside theirs —
  so distances, cover and kernels carry over unchanged and the damaged
  bags are exactly those containing ``v``;
* the arity-1 register file is repaired as a delta **overlay**
  (:class:`PatchedUnaryIndex`) over the frozen Theorem 3.1 store, so the
  per-update cost is ball-sized plus the delta bookkeeping — sublinear
  in ``n`` (benchmark E17's gate) — with an automatic collapse to a
  fresh store once the delta stops being small;
* the Proposition 4.2 distance oracle, which only levels of arity
  ``k >= 3`` build, is repaired the same way
  (:class:`PatchedDistanceIndex`): exact ``r``-balls for the touched
  vertices shadow the frozen recursive structure;
* for arity >= 2, the ``(kr, 2kr)``-cover keeps its bag *identity*
  (``assignment``, centers, and the Lemma 5.8 bag-id universe are
  stable) and bag membership grows monotonically: an inserted edge makes
  every touched vertex's canonical bag absorb its grown ball, a deleted
  edge leaves bags as sound supersets, so the Definition 4.3 invariant
  ``N_radius(a) ⊆ X(a)`` survives arbitrary update chains.  Both update
  kinds then share one damaged-bag tail: solvers are rebuilt for
  damaged bags only, the plan's sentences are re-checked, the Case-I
  target lists and skip pointers are patched per singleton local
  formula of the plan, and the k = 2 prefix register is
  re-derived by ``n`` O(1) probes of the repaired Lemma 5.2 oracle —
  exactly how it was first built, so repaired and rebuilt indexes are
  register-level equal (:func:`register_dump` is the differential
  oracle's view).

Escalations (documented, still correct): sentences, at arity 0 and in
the plan of every Lemma 5.2 level, are re-model-checked; unary queries
without a certified locality radius are re-solved from scratch; a
:class:`~repro.baselines.naive.NaiveIndex` is rebuilt on the new graph.

**Freeze-tripwire contract.**  Repair re-enters the build phase: every
function below that fills a frozen structure is ``@builds`` (the static
CCY103 exemption) and :func:`repaired_impl` opens an explicit
:func:`~repro.contracts.build_phase` so the runtime tripwire of
``repro serve --paranoid`` stays quiet while new generations are
assembled — readers of the *old* generation never see a write.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.baselines.naive import NaiveIndex
from repro.contracts import (
    amortized,
    build_phase,
    builds,
    constant_time,
    frozen_after_build,
    pseudo_linear,
    read_only,
)
from repro.core.last_coordinate import LastCoordinateIndex, live_plan
from repro.core.next_solution import NextSolutionIndex, PrefixScan, RelaxedPrefixIndex
from repro.core.normal_form import locality_radius, normalize
from repro.core.unary import UnaryIndex, model_check, unary_solutions
from repro.covers.kernels import kernel_of_bag
from repro.covers.neighborhood_cover import NeighborhoodCover
from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.neighborhoods import bounded_bfs
from repro.logic.semantics import DistanceCache, evaluate
from repro.logic.syntax import Exists
from repro.trace.runtime import span as _trace_span

#: Delta size beyond which a :class:`PatchedUnaryIndex` collapses into a
#: fresh Theorem 3.1 store (amortizes the O(n) rebuild over many small
#: updates; ``max(…, sqrt(n))`` keeps the collapse itself sublinear on
#: average for ball-sized deltas).
_COLLAPSE_FLOOR = 16


@frozen_after_build
class PatchedDistanceIndex:
    """A Proposition 4.2 oracle repaired by an exact-ball overlay.

    ``overlay[a]`` is the exact ``radius``-ball of ``a`` (vertex ->
    distance) on the *current* graph, recorded for every vertex whose
    ball an update changed.  Queries consult the overlay first — either
    endpoint having an entry fully determines the answer — and fall back
    to the frozen base oracle, which is still correct for vertices whose
    balls never changed.  Chained repairs flatten onto the original
    base, so lookup depth stays one.
    """

    def __init__(
        self,
        base: object,
        graph: ColoredGraph,
        overlay: dict[int, dict[int, int]],
        radius: int,
    ) -> None:
        if isinstance(base, PatchedDistanceIndex):
            merged = dict(base._overlay)
            merged.update(overlay)
            overlay = merged
            base = base._base
        self._base = base
        self._overlay = overlay
        self.graph = graph
        self.radius = radius

    @constant_time(note="two dict probes, then the frozen base oracle")
    @read_only
    def test(self, a: int, b: int) -> bool:
        """Is ``dist(a, b) <= radius``?  Constant time."""
        if a == b:
            return True
        ball = self._overlay.get(a)
        if ball is not None:
            return b in ball
        ball = self._overlay.get(b)
        if ball is not None:
            return a in ball
        return self._base.test(a, b)

    @constant_time(note="two dict probes, then the frozen base oracle")
    @read_only
    def distance(self, a: int, b: int) -> int | None:
        """The exact distance when ``<= radius``, else None."""
        if a == b:
            return 0
        ball = self._overlay.get(a)
        if ball is not None:
            found = ball.get(b)
            return found if found is not None and found <= self.radius else None
        ball = self._overlay.get(b)
        if ball is not None:
            found = ball.get(a)
            return found if found is not None and found <= self.radius else None
        return self._base.distance(a, b)

    @read_only
    def __repr__(self) -> str:
        return (
            f"PatchedDistanceIndex(r={self.radius}, "
            f"overlay={len(self._overlay)}, base={self._base!r})"
        )


@frozen_after_build
class PatchedUnaryIndex:
    """A Theorem 5.1 (k = 1) register file repaired by a delta overlay.

    The frozen base :class:`~repro.core.unary.UnaryIndex` keeps serving
    the untouched registers; ``added`` / ``removed`` (both ball-sized)
    shadow it.  ``test`` is two set probes plus one store probe;
    ``next_solution`` merges the base successor (skipping removed
    entries — at most ``|removed|`` hops) with a bisect into the sorted
    additions.  Chained repairs flatten onto the original base; once the
    delta outgrows ``max(sqrt(n), 16)``, :func:`_patch_unary` collapses
    the overlay into a fresh store instead.
    """

    def __init__(
        self,
        base: UnaryIndex,
        graph: ColoredGraph,
        added: set[int],
        removed: set[int],
    ) -> None:
        self._base = base
        self.graph = graph
        self.var = base.var
        self._added = frozenset(added)
        self._removed = frozenset(removed)
        self._added_sorted = sorted(added)

    @constant_time(note="two set probes + one frozen store probe")
    @read_only
    def test(self, v: int) -> bool:
        """Constant-time membership, overlay first."""
        if v in self._added:
            return True
        if v in self._removed:
            return False
        return self._base.test(v)

    @amortized("O(1)", note="base successor + |removed| skips, ball-bounded")
    @read_only
    def next_solution(self, lower: int) -> int | None:
        """Smallest solution ``>= lower`` across base-minus-removed and added."""
        if lower >= self.graph.n:
            return None
        lower = max(lower, 0)
        at = bisect_left(self._added_sorted, lower)
        from_added = self._added_sorted[at] if at < len(self._added_sorted) else None
        found = self._base.next_solution(lower)
        while found is not None and found in self._removed:
            found = self._base.next_solution(found + 1)
        if found is None:
            return from_added
        if from_added is None:
            return found
        return min(found, from_added)

    @property
    @read_only
    def solutions(self) -> list[int]:
        """The effective solution list, merged on each call (only the
        differential oracle's :func:`register_dump` reads it)."""
        return sorted((set(self._base.solutions) - self._removed) | self._added)

    @read_only
    def __len__(self) -> int:
        return len(self._base) + len(self._added) - len(self._removed)


# ----------------------------------------------------------------------
# damage localization helpers
# ----------------------------------------------------------------------
def _touched_ball(
    old_graph: ColoredGraph, new_graph: ColoredGraph, u: int, v: int, radius: int
) -> set[int]:
    """Vertices whose ``radius``-ball the update may have changed.

    The Removal-Lemma localization: a path gained or lost by toggling
    edge ``{u, v}`` passes through ``u`` and ``v``, so only vertices
    within ``radius`` of the edge — in the old *or* the new graph —
    can see a different ball.  A color flip at ``v`` passes ``u == v``:
    the balls that contain ``v`` are the ones that see the flip.
    """
    touched = set(bounded_bfs(old_graph, [u, v], radius))
    touched.update(bounded_bfs(new_graph, [u, v], radius))
    return touched


def _holds_on_ball(
    graph: ColoredGraph, psi, var, vertex: int, radius: int
) -> bool:
    """Evaluate the normalized unary query on the locality ball of
    ``vertex`` (ball-sized: the ball is compactly relabeled first)."""
    ball = bounded_bfs(graph, [vertex], radius)
    local, original = graph.relabeled_subgraph(ball)
    local_v = original.index(vertex)
    return evaluate(local, psi, {var: local_v}, DistanceCache(local))


# ----------------------------------------------------------------------
# per-layer repairs
# ----------------------------------------------------------------------
@pseudo_linear(note="ball-local re-evaluation; O(n) only on escalation/collapse")
@builds
def _patch_unary(
    old_unary: object,
    old_graph: ColoredGraph,
    new_graph: ColoredGraph,
    phi,
    var,
    u: int,
    v: int,
    eps: float,
) -> object:
    """Repair the arity-1 level: overlay when local, recompute when not."""
    psi = normalize(phi)
    radius = locality_radius(psi, frozenset((var,)))
    if radius is None:
        # escalation: no certified locality radius — re-solve from scratch
        fresh = unary_solutions(new_graph, phi, var)
        return UnaryIndex(new_graph, phi, var, eps=eps, solutions=fresh)
    touched = _touched_ball(old_graph, new_graph, u, v, radius)
    if isinstance(old_unary, PatchedUnaryIndex):
        base = old_unary._base
        added = set(old_unary._added)
        removed = set(old_unary._removed)
    else:
        base = old_unary
        added, removed = set(), set()
    for a in touched:
        in_base = base.test(a)
        if _holds_on_ball(new_graph, psi, var, a, radius):
            removed.discard(a)
            if not in_base:
                added.add(a)
        else:
            added.discard(a)
            if in_base:
                removed.add(a)
    if len(added) + len(removed) > max(_COLLAPSE_FLOOR, int(new_graph.n**0.5)):
        # collapse: fold the (no longer small) delta into a fresh store
        merged = sorted((set(base.solutions) - removed) | added)
        return UnaryIndex(new_graph, phi, var, eps=eps, solutions=merged)
    return PatchedUnaryIndex(base, new_graph, added, removed)


@builds
def _patched_cover(
    old: NeighborhoodCover,
    new_graph: ColoredGraph,
    damaged_members: dict[int, list[int]],
) -> NeighborhoodCover:
    """A structurally shared cover with the damaged bags' members swapped.

    Bag *identity* is preserved: ``assignment``, ``centers`` and the
    per-bag ``assigned`` lists are shared with the old cover.  Membership
    is **monotone** across repairs — ``damaged_members`` only ever grows
    a bag (inserts absorb grown balls, deletes keep bags as sound
    supersets) — so every vertex stays a member of its canonical bag and
    the Definition 4.3 invariant ``N_radius(a) ⊆ X(a)`` holds on the
    current graph after any update chain.
    """
    cover = object.__new__(NeighborhoodCover)
    cover.graph = new_graph
    cover.radius = old.radius
    cover.bag_radius = old.bag_radius
    bags = list(old.bags)
    member_sets = list(old._member_sets)
    for bag_id, members in damaged_members.items():
        bags[bag_id] = members
        member_sets[bag_id] = set(members)
    cover.bags = bags
    cover.centers = old.centers
    cover.assignment = old.assignment
    cover.assigned = old.assigned
    cover._member_sets = member_sets
    return cover


@pseudo_linear(note="ball-local bag surgery; skip pointers rebuilt per psi")
@builds
def _repair_last(
    old_graph: ColoredGraph,
    new_graph: ColoredGraph,
    old: LastCoordinateIndex,
    u: int,
    v: int,
    kind: str,
) -> LastCoordinateIndex:
    """Repair one Lemma 5.2 level onto the new graph (old level untouched).

    The update kinds differ only in their damage; the damaged bags then
    share one repair tail (solvers, Case-I structures), and every
    sentence is re-checked on the new graph.
    """
    new = object.__new__(LastCoordinateIndex)
    new.graph = new_graph
    new.phi = old.phi
    new.free_order = old.free_order
    new.k = old.k
    new.config = old.config
    new.decomp = old.decomp  # pure syntax: graph-independent
    new._plan = old._plan  # likewise
    new.r = old.r

    if kind == "color":
        # a color flip moves no edge: distances, cover and kernels carry
        # over, and only a bag containing v sees the flip in G[X]
        new.dist, new.cover, new.kernels = old.dist, old.cover, old.kernels
        damaged = {
            bag_id
            for bag_id, members in enumerate(old.cover._member_sets)
            if v in members
        }
    else:
        # Step 2 repair: exact balls for every vertex the update touched
        # (k >= 3 only: a level without a distance index gets no overlay)
        touched = _touched_ball(old_graph, new_graph, u, v, old.r)
        new.dist = None
        if old.dist is not None:
            overlay = {a: bounded_bfs(new_graph, [a], old.r) for a in touched}
            new.dist = PatchedDistanceIndex(old.dist, new_graph, overlay, old.r)

        # Step 3 repair: the cover invariant — N_radius(a) inside a's
        # canonical bag, for every a — must survive the update.  Deletions
        # only shrink balls, so unchanged bags stay sound supersets.
        # Insertions grow balls, so every vertex whose cover-radius ball
        # the edge touched gets its canonical bag *absorbed up* to the
        # grown ball.  Bags are monotone (they only ever gain members):
        # that keeps every assigned vertex a member of its own bag across
        # arbitrary update chains, which is what keeps carried-over solver
        # relabelings total and the Case-I/Case-II locality arguments sound.
        damaged_members: dict[int, list[int]] = {}
        if kind == "insert":
            rc = old.cover.radius
            grown: dict[int, set[int]] = {}
            for t in _touched_ball(old_graph, new_graph, u, v, rc):
                bag_id = old.cover.assignment[t]
                members = old.cover._member_sets[bag_id]
                extra = [
                    b for b in bounded_bfs(new_graph, [t], rc) if b not in members
                ]
                if extra:
                    grown.setdefault(bag_id, set()).update(extra)
            for bag_id, extra in grown.items():
                damaged_members[bag_id] = sorted(extra.union(old.cover.bags[bag_id]))
        new.cover = _patched_cover(old.cover, new_graph, damaged_members)

        # a bag is damaged when its membership changed or any member's
        # r-ball did; stale superset members can sit arbitrarily far from
        # their bag's center after earlier deletes, so membership itself —
        # not center distance — is the damage test (one ball-sized
        # disjointness probe per bag, the same per-bag scan the cover
        # build already does)
        damaged = set(damaged_members)
        for bag_id, members in enumerate(new.cover._member_sets):
            if bag_id not in damaged and not members.isdisjoint(touched):
                damaged.add(bag_id)

        kernels = list(old.kernels)
        for bag_id in damaged:
            kernels[bag_id] = kernel_of_bag(new_graph, new.cover.bags[bag_id], old.r)
        new.kernels = kernels

    # solvers of undamaged bags see an unchanged induced subgraph + kernel
    # color, so they and their memoized columns carry over as they are
    new.solvers = list(old.solvers)
    for bag_id in damaged:
        new.solvers[bag_id] = new._build_solver(bag_id)
    new.live_plan = live_plan(new_graph, new._plan)
    if damaged:
        # a Step-12 target list is a disjoint union of per-canonical-bag
        # columns, so only the damaged bags' slices are swapped; the
        # Lemma 5.8 pointers are rebuilt over the stable bag-id universe
        # (no repair creates or destroys a bag, so their keys and
        # sentinel stay comparable with a from-scratch build)
        drop = {t for bag_id in damaged for t in new.cover.assigned[bag_id]}
        new.far_structures = {
            psi: new._build_far(psi, damaged, [t for t in targets if t not in drop])
            for psi, (targets, _) in old.far_structures.items()
        }
    else:
        # no bag was touched: target lists and kernels are unchanged, so
        # the Lemma 5.8 structures can be shared as-is
        new.far_structures = old.far_structures
    return new


@pseudo_linear(note="per-level repair; k=2 prefix re-derived by n O(1) probes")
@builds
def _repair_next(
    old_graph: ColoredGraph,
    new_graph: ColoredGraph,
    node: NextSolutionIndex,
    u: int,
    v: int,
    kind: str,
) -> NextSolutionIndex:
    """Repair one Theorem 5.1 level (and, recursively, its prefix tower)."""
    config = node.config
    new = object.__new__(NextSolutionIndex)
    new.graph = new_graph
    new.phi = node.phi
    new.free_order = node.free_order
    new.k = node.k
    new.config = config
    new._holds = None
    new._unary = None
    new.last = None
    if node.k == 0:
        # escalation: sentences are re-model-checked (pseudo-linear)
        new._holds = model_check(new_graph, node.phi)
        return new
    if node.k == 1:
        new._unary = _patch_unary(
            node._unary,
            old_graph,
            new_graph,
            node.phi,
            node.free_order[0],
            u,
            v,
            config.eps,
        )
        return new
    new.last = _repair_last(old_graph, new_graph, node.last, u, v, kind)
    if node.k == 2:
        # exactly how the register was first derived: n O(1) oracle probes
        solutions = [
            a
            for a in new_graph.vertices()
            if new.last.first_last((a,), 0) is not None
        ]
        new._prefix = UnaryIndex(
            new_graph,
            Exists(new.free_order[-1], new.phi),
            new.free_order[0],
            eps=config.eps,
            solutions=solutions,
        )
        return new
    prefix = node._prefix
    if isinstance(prefix, NextSolutionIndex):
        new._prefix = _repair_next(old_graph, new_graph, prefix, u, v, kind)
    elif isinstance(prefix, RelaxedPrefixIndex):
        relaxed = object.__new__(RelaxedPrefixIndex)
        relaxed._oracle = new.last
        relaxed._n = new_graph.n
        relaxed._inner = _repair_next(
            old_graph, new_graph, prefix._inner, u, v, kind
        )
        new._prefix = relaxed
    else:
        new._prefix = PrefixScan(new.last, new_graph.n, node.k - 1)
    return new


# ----------------------------------------------------------------------
# entry point + differential oracle
# ----------------------------------------------------------------------
@pseudo_linear(note="ball-local repair; documented escalations are linear")
@builds
def repaired_impl(
    old_graph: ColoredGraph,
    new_graph: ColoredGraph,
    impl: object,
    u: int,
    v: int,
    kind: str,
) -> object:
    """A new implementation tower for ``new_graph``; ``impl`` is untouched.

    ``kind`` is the update that turned ``old_graph`` into ``new_graph``:
    ``"insert"`` or ``"delete"`` of edge ``{u, v}``, or ``"color"`` for
    a color flip at ``u == v``.  The explicit :func:`build_phase` makes the repair a legitimate
    re-entry into the build phase under the runtime freeze tripwire:
    every structure assembled here is a *new* generation — old-generation
    readers race against nothing.
    """
    with build_phase(), _trace_span(
        "repair.apply", "engine.update_seconds", kind=kind, u=u, v=v
    ):
        if isinstance(impl, NaiveIndex):
            # escalation: the baseline has no locality to exploit
            return NaiveIndex(new_graph, impl.phi, impl.free_order)
        if isinstance(impl, NextSolutionIndex):
            return _repair_next(old_graph, new_graph, impl, u, v, kind)
        raise TypeError(
            f"cannot repair index implementation {type(impl).__name__}"
        )


def register_dump(index: object) -> dict:
    """The semantically-determined registers, for differential testing.

    Two indexes over the same (graph, query, order, config) must agree on
    this dump whether they were built from scratch or repaired through
    any update sequence: the unary solution registers per level, the
    k = 2 prefix register, and the Case-I target lists (one per
    singleton-last local formula of the plan).  Cover *geometry* (which
    centers won, bag shapes) is deliberately excluded — it is an
    implementation degree of freedom the Storing-Theorem registers are
    defined over, not one of them.
    """
    impl = getattr(index, "_impl", index)
    out: dict = {}
    if isinstance(impl, NaiveIndex):
        out["naive_solutions"] = [list(t) for t in impl.solutions]
        return out
    levels = []
    node = impl
    while isinstance(node, NextSolutionIndex):
        level: dict = {"k": node.k}
        if node.k == 0:
            level["holds"] = bool(node._holds)
            levels.append(level)
            break
        if node.k == 1:
            level["unary"] = list(node._unary.solutions)
            levels.append(level)
            break
        last = node.last
        level["radius"] = last.r
        far = {
            repr(psi): list(targets)
            for psi, (targets, _) in last.far_structures.items()
        }
        level["far_targets"] = dict(sorted(far.items()))
        prefix = node._prefix
        if node.k == 2:
            level["prefix"] = list(prefix.solutions)
            levels.append(level)
            break
        levels.append(level)
        if isinstance(prefix, NextSolutionIndex):
            node = prefix
        elif isinstance(prefix, RelaxedPrefixIndex):
            node = prefix._inner
        else:  # PrefixScan carries no registers of its own
            break
    out["levels"] = levels
    return out
