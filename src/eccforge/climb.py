"""The two-pointer climb shared by the block forest and the cactus forest,
whose nodes keep no depth (the decomposition tree's nodes know their level,
so it climbs by level instead).

Both endpoints climb alternately, one step each, and a local set records
every node they pass; the first climber to step onto a recorded node has
found the meeting node. The cost is O(|path from x to y|) with no depth
bookkeeping, and the climb writes nothing on the nodes.
"""

from __future__ import annotations

from collections.abc import Callable


def meet_paths(
    x: object, y: object, up: Callable[[object], object]
) -> tuple[list, list] | None:
    """Paths from x and from y up to their meeting node, both inclusive.

    `up(node)` gives the parent of a node, or None at a root. Nodes must be
    hashable; the nodes visited are kept in a set local to the call, so the
    climb leaves no state behind on them. x and y must be distinct. Returns
    None when they lie in different trees; otherwise
    `path_x[-1] is path_y[-1]`.
    """
    path_x, path_y = [x], [y]
    seen = {x, y}
    a, b = x, y
    meet = None
    while a is not None or b is not None:
        if a is not None:
            a = up(a)
            if a is not None:
                if a in seen:
                    meet, hit, other = a, path_x, path_y
                    break
                seen.add(a)
                path_x.append(a)
        if b is not None:
            b = up(b)
            if b is not None:
                if b in seen:
                    meet, hit, other = b, path_y, path_x
                    break
                seen.add(b)
                path_y.append(b)
    if meet is None:
        return None
    # the meeting node is the other climber's; drop what it climbed past it
    hit.append(meet)
    del other[other.index(meet) + 1 :]
    return path_x, path_y
