"""The (λ, r)-splitter game engine (Definition 4.5).

``G_0 = G``.  In round ``i+1`` Connector picks ``c ∈ V_i``, Splitter picks
``s ∈ N_r^{G_i}(c)``; the next arena is ``V_{i+1} = N_r^{G_i}(c) \\ {s}``.
Splitter wins when the arena becomes empty; Connector wins by surviving
``λ`` rounds.

:func:`rounds_to_win` plays the game against adversarial Connectors to
*measure* ``λ(r)`` for a graph (experiment E5); the engine itself only
needs single Splitter moves (Remark 4.7), supplied by
:mod:`repro.splitter.strategies`.
"""

from __future__ import annotations

import random

from repro.graphs.colored_graph import ColoredGraph
from repro.splitter.strategies import SplitterStrategy, default_strategy
from repro.trace.runtime import span as _trace_span


class SplitterGame:
    """A playable game state on an ambient graph.

    The arena is tracked as a vertex subset; balls are computed by BFS
    restricted to the arena (the game's ``G_i`` is the induced subgraph).
    """

    def __init__(self, graph: ColoredGraph, radius: int) -> None:
        if radius < 1:
            raise ValueError(f"the splitter game needs radius >= 1, got {radius}")
        self.graph = graph
        self.radius = radius
        self.arena: set[int] = set(graph.vertices())
        self.rounds_played = 0
        self.history: list[tuple[int, int]] = []  # (connector, splitter) moves

    def ball(self, center: int) -> set[int]:
        """``N_r^{G_i}(center)``: BFS inside the current arena."""
        if center not in self.arena:
            raise ValueError(f"connector move {center} outside the arena")
        dist: dict[int, int] = {center: 0}
        frontier = [center]
        for _ in range(self.radius):
            new_frontier = []
            for u in frontier:
                for w in self.graph.neighbors(u):
                    if w in self.arena and w not in dist:
                        dist[w] = dist[u] + 1
                        new_frontier.append(w)
            frontier = new_frontier
        return set(dist)

    @property
    def over(self) -> bool:
        """Has Splitter emptied the arena?"""
        return not self.arena

    def play_round(self, connector: int, splitter: int) -> None:
        """Apply one round; validates both moves."""
        ball = self.ball(connector)
        if splitter not in ball:
            raise ValueError(f"splitter move {splitter} outside N_r({connector})")
        self.arena = ball - {splitter}
        self.rounds_played += 1
        self.history.append((connector, splitter))


def _adversarial_connector(game: SplitterGame, rng: random.Random, samples: int) -> int:
    """A greedy Connector: sample candidates, pick the one whose ball is
    largest (a strong proxy for surviving long)."""
    arena = sorted(game.arena)
    if len(arena) <= samples:
        candidates = arena
    else:
        candidates = rng.sample(arena, samples)
    return max(candidates, key=lambda c: (len(game.ball(c)), -c))


def play_game(
    graph: ColoredGraph,
    radius: int,
    strategy: SplitterStrategy | None = None,
    connector: str = "adversarial",
    seed: int = 0,
    max_rounds: int | None = None,
    samples: int = 8,
) -> int:
    """Play one full game; returns the number of rounds Splitter needed.

    ``connector`` is ``"adversarial"`` (greedy largest-ball) or
    ``"random"``.  ``max_rounds`` aborts run-away games (returns the bound).
    """
    if strategy is None:
        strategy = default_strategy(graph)
    game = SplitterGame(graph, radius)
    rng = random.Random(seed)
    limit = max_rounds if max_rounds is not None else graph.n + 1
    with _trace_span(
        "splitter.play_game", radius=radius, connector=connector, n=graph.n
    ) as sp:
        while not game.over and game.rounds_played < limit:
            if connector == "adversarial":
                c = _adversarial_connector(game, rng, samples)
            elif connector == "random":
                c = rng.choice(sorted(game.arena))
            else:
                raise ValueError(f"unknown connector policy {connector!r}")
            ball = game.ball(c)
            with _trace_span("splitter.move", round=game.rounds_played):
                s = strategy.choose(game.graph, game.arena, ball, c, radius)
            game.play_round(c, s)
        if sp is not None:
            sp.attributes["rounds"] = game.rounds_played
    return game.rounds_played


def rounds_to_win(
    graph: ColoredGraph,
    radius: int,
    strategy: SplitterStrategy | None = None,
    trials: int = 5,
    seed: int = 0,
) -> int:
    """Empirical ``λ(radius)``: worst case over several Connector plays."""
    worst = 0
    for trial in range(trials):
        policy = "adversarial" if trial % 2 == 0 else "random"
        worst = max(
            worst,
            play_game(graph, radius, strategy, connector=policy, seed=seed + trial),
        )
    return worst
