"""Unit tests for the splitter game (Definition 4.5)."""

import pytest

from repro.graphs.colored_graph import ColoredGraph
from repro.graphs.generators import grid, path, random_tree, star, subdivided_clique
from repro.splitter.game import SplitterGame, play_game, rounds_to_win, splitter_move
from repro.splitter.strategies import GreedySeparatorStrategy


def test_game_rejects_radius_zero():
    with pytest.raises(ValueError):
        SplitterGame(path(3, palette=()), 0)


def test_ball_is_arena_restricted():
    g = path(10, palette=())
    game = SplitterGame(g, 2)
    game.play_round(5, 5)  # arena becomes {3,4,6,7}
    assert game.arena == {3, 4, 6, 7}
    # 4's ball inside the arena cannot cross the removed vertex 5
    assert game.ball(4) == {3, 4}


def test_moves_validated():
    g = path(10, palette=())
    game = SplitterGame(g, 2)
    with pytest.raises(ValueError):
        game.play_round(0, 9)  # splitter move outside the ball
    game.play_round(0, 0)
    with pytest.raises(ValueError):
        game.ball(9)  # connector move outside the arena


def test_splitter_always_wins_eventually():
    for build in (lambda: path(30, palette=()), lambda: random_tree(40, seed=1), lambda: grid(5, 5)):
        g = build()
        rounds = play_game(g, 2)
        assert 0 < rounds <= g.n


def test_edgeless_graph_is_one_round():
    g = ColoredGraph(5)
    assert play_game(g, 2) == 1  # any ball is a single vertex


def test_star_needs_two_rounds_at_most():
    g = star(20, palette=())
    assert rounds_to_win(g, 2, trials=3) <= 2


def test_rounds_to_win_monotone_in_radius_on_paths():
    g = path(200, palette=())
    r1 = rounds_to_win(g, 1, trials=3)
    r4 = rounds_to_win(g, 4, trials=3)
    assert r1 <= r4 + 1  # larger radius gives Connector more room


def test_rounds_bounded_for_trees():
    # trees are (very) nowhere dense: lambda(r) stays small
    g = random_tree(400, seed=7)
    assert rounds_to_win(g, 2, trials=4) <= 8


def test_subdivided_clique_rounds_grow_at_radius_4():
    """Experiment E5's negative control: somewhere dense means no lambda(r).

    At radius 4 every branch vertex of a once-subdivided K_k sees all the
    others, so Connector keeps the game alive for about k rounds, while
    trees of growing size stay flat.  (At radius 2 the control is no
    harder than a tree, so the radius matters.)
    """
    tree_rounds = [rounds_to_win(random_tree(n, seed=1), 4, trials=2) for n in (256, 1024)]
    clique_rounds = [
        rounds_to_win(subdivided_clique(k, subdivisions=1), 4, trials=2)
        for k in (8, 16, 24)
    ]
    assert max(tree_rounds) <= 8
    assert clique_rounds == sorted(set(clique_rounds))  # strictly growing in k
    assert all(rounds >= k for rounds, k in zip(clique_rounds, (8, 16, 24)))
    assert clique_rounds[-1] > 2 * max(tree_rounds)


def test_splitter_move_stays_in_ball():
    g = grid(6, 6)
    bag = sorted(range(12))
    s = splitter_move(g, bag, 0, 2, GreedySeparatorStrategy())
    assert s in bag


def test_unknown_connector_policy_rejected():
    with pytest.raises(ValueError):
        play_game(path(5, palette=()), 1, connector="bogus")
