import pytest

from arrgraph.graphs import build_arrangement_graph, build_cayley_graph
from arrgraph.perms import connection_set
from oracles import graph_from_edges


def _plain(n, edges):
    return graph_from_edges([(i,) for i in range(n)], edges)


@pytest.fixture(scope="session")
def corpus():
    """Small named graphs used across the oracle-style tests."""
    complete4 = _plain(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cycle4 = _plain(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path4 = _plain(4, [(0, 1), (1, 2), (2, 3)])
    petersen = _plain(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                           (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                           (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    return {
        "K4": complete4,
        "C4": cycle4,
        "P4": path4,
        "petersen": petersen,
        "A(4,2,1)": build_arrangement_graph(4, 2, 1),
        "A(4,2,2)": build_arrangement_graph(4, 2, 2),
        "A(3,3,3)": build_arrangement_graph(3, 3, 3),
        "A(4,4,4)": build_arrangement_graph(4, 4, 4),
        "Cay(S3,T)": build_cayley_graph(3, connection_set(3, "transpositions")),
    }
