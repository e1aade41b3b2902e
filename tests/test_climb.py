from operator import attrgetter

from eccforge.cactusforest import CactusForest, CycleNode
from eccforge.climb import meet_paths

up = attrgetter("parent")


class Node:
    __slots__ = ("name", "parent")

    def __init__(self, name, parent=None):
        self.name = name
        self.parent = parent

    def __repr__(self):
        return f"Node({self.name})"


def chain(length, top=None):
    """`length` nodes hanging in a line below `top`; returns them top-down."""
    nodes = []
    for i in range(length):
        top = Node(i, top)
        nodes.append(top)
    return nodes


def meet(x, y, up):
    """meet_paths(x, y, up), checked to leave no state behind: a second call
    on the same nodes returns equal paths."""
    paths = meet_paths(x, y, up)
    assert meet_paths(x, y, up) == paths
    return paths


def test_ancestor_and_descendant():
    a, b, c, d = chain(4)
    assert meet(b, d, up) == ([b], [d, c, b])
    assert meet(d, b, up) == ([d, c, b], [b])


def test_siblings_meet_at_parent():
    root = Node("r")
    a, b = Node("a", root), Node("b", root)
    a1 = Node("a1", a)
    assert meet(a1, b, up) == ([a1, a, root], [b, root])
    assert meet(a, b, up) == ([a, root], [b, root])


def test_shallow_side_climbs_past_the_meet():
    # y reaches the root long before x reaches their meeting node; the
    # nodes y climbed past the meet are not part of its path
    above = chain(5)
    m = Node("m", above[-1])
    y = Node("y", m)
    deep = chain(8, m)
    path_x, path_y = meet(deep[-1], y, up)
    assert path_x == deep[::-1] + [m]
    assert path_y == [y, m]


def test_disjoint_trees():
    left, right = chain(3), chain(5)
    assert meet(left[-1], right[-1], up) is None
    assert meet(left[0], right[0], up) is None


def test_cactus_meet_at_cycle_node():
    cf = CactusForest()
    a, b, c, d = (cf.new_node(k) for k in "abcd")
    cf.join_cactuses([a, b, c, d], ["ab", "bc", "cd", "da"])
    # the last of equally large cactuses becomes the parent of the new cycle
    (cyc,) = cf.cycles()
    assert cf.representative(cyc.parent_entry.real) is d
    path_a, path_c = meet(a, c, cf._up)
    assert path_a == [a, cyc] and path_c == [c, cyc]
    assert isinstance(path_a[-1], CycleNode)
    assert meet(a, d, cf._up) == ([a, cyc, d], [d])
    assert meet(a, cf.new_node("e"), cf._up) is None
