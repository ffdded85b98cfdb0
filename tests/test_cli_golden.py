"""Byte-for-byte CLI output and exit codes on a fixed set of commands.

Every subcommand that reads a graph is run on g2, g3, g4, the two-loop
bouquet and the bridged-blocks graph, in every ``--format`` it offers.
Two graphs pin the empty shapes: the 3-vertex path (odd, so its Q
polytope has no points) and the one-vertex edgeless graph (one vertex
with zero coordinates, so rows and headers with no cells).
The table was recorded from the implementation that predates the shared
labeling-search core, the shared row reduction and the polytope-facts
cache; those refactors must leave every entry unchanged.  A key reads
``"<graph>: <argv>"``, where ``@`` stands for the graph file and ``@lab``
for a fixed magic labeling of that graph (``-`` means no graph).
"""

import pytest

from magiclab import (
    Graph,
    Labeling,
    bouquet,
    graph_to_json,
    labeling_to_json,
    lstar,
    make_gn,
    path_graph,
)
from magiclab.cli import main
from magiclab.verification import bridged_blocks

GRAPHS = {
    "g2": make_gn(2),
    "g3": make_gn(3),
    "g4": make_gn(4),
    "two_loops": bouquet(2),
    "bridged_blocks": bridged_blocks(),
    "path3": path_graph(3),
    "point": Graph(("a",), ()),
}

LABELS = {
    "g2": lstar(2).labels,
    "g3": lstar(3).labels,
    "g4": lstar(4).labels,
    "two_loops": (2, 1),
    "bridged_blocks": (0, 2, 0, 2, 2),
    "path3": (0, 0),
    "point": (),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, g in GRAPHS.items():
        graph_path = root / f"{name}.json"
        graph_path.write_text(graph_to_json(g))
        lab_path = root / f"{name}.lab.json"
        lab_path.write_text(labeling_to_json(Labeling(g, LABELS[name])))
        paths[name] = {"@": str(graph_path), "@lab": str(lab_path)}
    return paths


GOLDEN = {
    'g2: count --graph @ -k 3 --format human': (0, '16\n'),
    'g2: count --graph @ -k 3 --format json': (0, '{"count":"16","k":3}\n'),
    'g2: count --graph @ -k 3 --format csv': (
        0,
        'k,count\n'
        '3,16\n',
    ),
    'g2: series --graph @ --kmax 4 --with-index --format human': (
        0,
        '0\t1\t1\n'
        '1\t4\t2\n'
        '2\t9\t3\n'
        '3\t16\t4\n'
        '4\t25\t5\n',
    ),
    'g2: series --graph @ --kmax 4 --with-index --format json': (
        0,
        '{"index_count":"1","k":0,"magic_count":"1"}\n'
        '{"index_count":"2","k":1,"magic_count":"4"}\n'
        '{"index_count":"3","k":2,"magic_count":"9"}\n'
        '{"index_count":"4","k":3,"magic_count":"16"}\n'
        '{"index_count":"5","k":4,"magic_count":"25"}\n',
    ),
    'g2: series --graph @ --kmax 4 --with-index --format csv': (
        0,
        'k,magic_count,index_count\n'
        '0,1,1\n'
        '1,4,2\n'
        '2,9,3\n'
        '3,16,4\n'
        '4,25,5\n',
    ),
    'g2: vertices --graph @ --polytope P --format human': (
        0,
        '(0, 0, 0, 0, 0, 0)\n'
        '(0, 1, 1, 0, 1, 0)\n'
        '(1, 0, 0, 1, 0, 1)\n'
        '(1, 1, 1, 1, 1, 1)\n',
    ),
    'g2: vertices --graph @ --polytope P --format json': (
        0,
        '[["0","0","0","0","0","0"],["0","1","1","0","1","0"],["1","0","0","1","0","1"],["1","1","1","1","1","1"]]\n',
    ),
    'g2: vertices --graph @ --polytope P --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5\n'
        '0,0,0,0,0,0\n'
        '0,1,1,0,1,0\n'
        '1,0,0,1,0,1\n'
        '1,1,1,1,1,1\n',
    ),
    'g2: vertices --graph @ --polytope Q --format human': (
        0,
        '(0, 1, 1, 0, 1, 0)\n'
        '(1, 0, 0, 1, 0, 1)\n',
    ),
    'g2: vertices --graph @ --polytope Q --format json': (
        0,
        '[["0","1","1","0","1","0"],["1","0","0","1","0","1"]]\n',
    ),
    'g2: vertices --graph @ --polytope Q --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5\n'
        '0,1,1,0,1,0\n'
        '1,0,0,1,0,1\n',
    ),
    'g2: ehrhart --graph @ --polytope P --format human': (
        0,
        'polytope: P\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + 2*t + t^2\n',
    ),
    'g2: ehrhart --graph @ --polytope P --format json': (
        0,
        '{"constituents":[["1","2","1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"P"}\n',
    ),
    'g2: ehrhart --graph @ --polytope Q --format human': (
        0,
        'polytope: Q\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + t\n',
    ),
    'g2: ehrhart --graph @ --polytope Q --format json': (
        0,
        '{"constituents":[["1","1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"Q"}\n',
    ),
    'g2: cf --graph @ --verify --format human': (
        0,
        'labels=[0, 0, 0, 0, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[0, 1, 1, 0, 1, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 0, 0, 1, 0, 1] height=1 unrefuted up to m=3\n'
        'labels=[1, 1, 1, 1, 1, 1] height=1 unrefuted up to m=3\n',
    ),
    'g2: cf --graph @ --verify --format json': (
        0,
        '[{"height":1,"labels":[0,0,0,0,0,0],"refuted":false},{"height":1,"labels":[0,1,1,0,1,0],"refuted":false},{"height":1,"labels":[1,0,0,1,0,1],"refuted":false},{"height":1,"labels":[1,1,1,1,1,1],"refuted":false}]\n',
    ),
    'g2: check --graph @ --format human': (
        0,
        'bipartite: yes\n'
        'leaves: none\n'
        'matching preclusion class: greater_than_one\n'
        'forced max edge: none\n'
        'certificate: no_certificate\n',
    ),
    'g2: check --graph @ --format json': (
        0,
        '{"bipartite":true,"certificate":"no_certificate","forced_max_edge":null,"forced_max_vacuous":false,"leaves":[],"matching_preclusion":"greater_than_one"}\n',
    ),
    'g2: decompose --graph @ --labeling @lab --format human': (
        0,
        'labels=[0, 1, 1, 0, 1, 0] index=1\n'
        'labels=[1, 0, 0, 1, 0, 1] index=1\n',
    ),
    'g2: decompose --graph @ --labeling @lab --format json': (
        0,
        '[{"index":1,"labels":[0,1,1,0,1,0]},{"index":1,"labels":[1,0,0,1,0,1]}]\n',
    ),
    'g3: count --graph @ -k 3 --format human': (0, '23\n'),
    'g3: count --graph @ -k 3 --format json': (0, '{"count":"23","k":3}\n'),
    'g3: count --graph @ -k 3 --format csv': (
        0,
        'k,count\n'
        '3,23\n',
    ),
    'g3: series --graph @ --kmax 4 --with-index --format human': (
        0,
        '0\t1\t1\n'
        '1\t4\t3\n'
        '2\t11\t6\n'
        '3\t23\t10\n'
        '4\t42\t15\n',
    ),
    'g3: series --graph @ --kmax 4 --with-index --format json': (
        0,
        '{"index_count":"1","k":0,"magic_count":"1"}\n'
        '{"index_count":"3","k":1,"magic_count":"4"}\n'
        '{"index_count":"6","k":2,"magic_count":"11"}\n'
        '{"index_count":"10","k":3,"magic_count":"23"}\n'
        '{"index_count":"15","k":4,"magic_count":"42"}\n',
    ),
    'g3: series --graph @ --kmax 4 --with-index --format csv': (
        0,
        'k,magic_count,index_count\n'
        '0,1,1\n'
        '1,4,3\n'
        '2,11,6\n'
        '3,23,10\n'
        '4,42,15\n',
    ),
    'g3: vertices --graph @ --polytope P --format human': (
        0,
        '(0, 0, 0, 0, 0, 0, 0, 0, 0)\n'
        '(0, 1, 1, 1, 0, 0, 1, 0, 0)\n'
        '(1, 0, 1, 0, 1, 0, 0, 1, 0)\n'
        '(1, 1, 0, 0, 0, 1, 0, 0, 1)\n'
        '(1, 1, 1, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2)\n',
    ),
    'g3: vertices --graph @ --polytope P --format json': (
        0,
        '[["0","0","0","0","0","0","0","0","0"],["0","1","1","1","0","0","1","0","0"],["1","0","1","0","1","0","0","1","0"],["1","1","0","0","0","1","0","0","1"],["1","1","1","1/2","1/2","1/2","1/2","1/2","1/2"]]\n',
    ),
    'g3: vertices --graph @ --polytope P --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5,e6,e7,e8\n'
        '0,0,0,0,0,0,0,0,0\n'
        '0,1,1,1,0,0,1,0,0\n'
        '1,0,1,0,1,0,0,1,0\n'
        '1,1,0,0,0,1,0,0,1\n'
        '1,1,1,1/2,1/2,1/2,1/2,1/2,1/2\n',
    ),
    'g3: vertices --graph @ --polytope Q --format human': (
        0,
        '(0, 1, 1, 1, 0, 0, 1, 0, 0)\n'
        '(1, 0, 1, 0, 1, 0, 0, 1, 0)\n'
        '(1, 1, 0, 0, 0, 1, 0, 0, 1)\n',
    ),
    'g3: vertices --graph @ --polytope Q --format json': (
        0,
        '[["0","1","1","1","0","0","1","0","0"],["1","0","1","0","1","0","0","1","0"],["1","1","0","0","0","1","0","0","1"]]\n',
    ),
    'g3: vertices --graph @ --polytope Q --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5,e6,e7,e8\n'
        '0,1,1,1,0,0,1,0,0\n'
        '1,0,1,0,1,0,0,1,0\n'
        '1,1,0,0,0,1,0,0,1\n',
    ),
    'g3: ehrhart --graph @ --polytope P --format human': (
        0,
        'polytope: P\n'
        'denominator: 2\n'
        'minimum quasiperiod: 2\n'
        'period: 2\n'
        'residue 0: 1 + 7/4*t + 9/8*t^2 + 1/4*t^3\n'
        'residue 1: 7/8 + 7/4*t + 9/8*t^2 + 1/4*t^3\n',
    ),
    'g3: ehrhart --graph @ --polytope P --format json': (
        0,
        '{"constituents":[["1","7/4","9/8","1/4"],["7/8","7/4","9/8","1/4"]],"denominator":2,"minimum_quasiperiod":2,"period":2,"polytope":"P"}\n',
    ),
    'g3: ehrhart --graph @ --polytope Q --format human': (
        0,
        'polytope: Q\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + 3/2*t + 1/2*t^2\n',
    ),
    'g3: ehrhart --graph @ --polytope Q --format json': (
        0,
        '{"constituents":[["1","3/2","1/2"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"Q"}\n',
    ),
    'g3: cf --graph @ --verify --format human': (
        0,
        'labels=[0, 0, 0, 0, 0, 0, 0, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[0, 1, 1, 1, 0, 0, 1, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 0, 1, 0, 1, 0, 0, 1, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 1, 0, 0, 0, 1, 0, 0, 1] height=1 unrefuted up to m=3\n'
        'labels=[2, 2, 2, 1, 1, 1, 1, 1, 1] height=2 unrefuted up to m=3\n',
    ),
    'g3: cf --graph @ --verify --format json': (
        0,
        '[{"height":1,"labels":[0,0,0,0,0,0,0,0,0],"refuted":false},{"height":1,"labels":[0,1,1,1,0,0,1,0,0],"refuted":false},{"height":1,"labels":[1,0,1,0,1,0,0,1,0],"refuted":false},{"height":1,"labels":[1,1,0,0,0,1,0,0,1],"refuted":false},{"height":2,"labels":[2,2,2,1,1,1,1,1,1],"refuted":false}]\n',
    ),
    'g3: check --graph @ --format human': (
        0,
        'bipartite: yes\n'
        'leaves: none\n'
        'matching preclusion class: greater_than_one\n'
        'forced max edge: none\n'
        'certificate: no_certificate\n',
    ),
    'g3: check --graph @ --format json': (
        0,
        '{"bipartite":true,"certificate":"no_certificate","forced_max_edge":null,"forced_max_vacuous":false,"leaves":[],"matching_preclusion":"greater_than_one"}\n',
    ),
    'g3: decompose --graph @ --labeling @lab --format human': (
        0,
        'labels=[0, 1, 1, 1, 0, 0, 1, 0, 0] index=1\n'
        'labels=[1, 0, 1, 0, 1, 0, 0, 1, 0] index=1\n'
        'labels=[1, 1, 0, 0, 0, 1, 0, 0, 1] index=1\n',
    ),
    'g3: decompose --graph @ --labeling @lab --format json': (
        0,
        '[{"index":1,"labels":[0,1,1,1,0,0,1,0,0]},{"index":1,"labels":[1,0,1,0,1,0,0,1,0]},{"index":1,"labels":[1,1,0,0,0,1,0,0,1]}]\n',
    ),
    'g4: count --graph @ -k 3 --format human': (0, '36\n'),
    'g4: count --graph @ -k 3 --format json': (0, '{"count":"36","k":3}\n'),
    'g4: count --graph @ -k 3 --format csv': (
        0,
        'k,count\n'
        '3,36\n',
    ),
    'g4: series --graph @ --kmax 4 --with-index --format human': (
        0,
        '0\t1\t1\n'
        '1\t5\t4\n'
        '2\t15\t10\n'
        '3\t36\t20\n'
        '4\t74\t35\n',
    ),
    'g4: series --graph @ --kmax 4 --with-index --format json': (
        0,
        '{"index_count":"1","k":0,"magic_count":"1"}\n'
        '{"index_count":"4","k":1,"magic_count":"5"}\n'
        '{"index_count":"10","k":2,"magic_count":"15"}\n'
        '{"index_count":"20","k":3,"magic_count":"36"}\n'
        '{"index_count":"35","k":4,"magic_count":"74"}\n',
    ),
    'g4: series --graph @ --kmax 4 --with-index --format csv': (
        0,
        'k,magic_count,index_count\n'
        '0,1,1\n'
        '1,5,4\n'
        '2,15,10\n'
        '3,36,20\n'
        '4,74,35\n',
    ),
    'g4: vertices --graph @ --polytope P --format human': (
        0,
        '(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n'
        '(0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0)\n'
        '(1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0)\n'
        '(1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0)\n'
        '(1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1)\n'
        '(1, 1, 1, 1, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3)\n',
    ),
    'g4: vertices --graph @ --polytope P --format json': (
        0,
        '[["0","0","0","0","0","0","0","0","0","0","0","0"],["0","1","1","1","1","0","0","0","1","0","0","0"],["1","0","1","1","0","1","0","0","0","1","0","0"],["1","1","0","1","0","0","1","0","0","0","1","0"],["1","1","1","0","0","0","0","1","0","0","0","1"],["1","1","1","1","1/3","1/3","1/3","1/3","1/3","1/3","1/3","1/3"]]\n',
    ),
    'g4: vertices --graph @ --polytope P --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11\n'
        '0,0,0,0,0,0,0,0,0,0,0,0\n'
        '0,1,1,1,1,0,0,0,1,0,0,0\n'
        '1,0,1,1,0,1,0,0,0,1,0,0\n'
        '1,1,0,1,0,0,1,0,0,0,1,0\n'
        '1,1,1,0,0,0,0,1,0,0,0,1\n'
        '1,1,1,1,1/3,1/3,1/3,1/3,1/3,1/3,1/3,1/3\n',
    ),
    'g4: vertices --graph @ --polytope Q --format human': (
        0,
        '(0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0)\n'
        '(1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0)\n'
        '(1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0)\n'
        '(1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1)\n',
    ),
    'g4: vertices --graph @ --polytope Q --format json': (
        0,
        '[["0","1","1","1","1","0","0","0","1","0","0","0"],["1","0","1","1","0","1","0","0","0","1","0","0"],["1","1","0","1","0","0","1","0","0","0","1","0"],["1","1","1","0","0","0","0","1","0","0","0","1"]]\n',
    ),
    'g4: vertices --graph @ --polytope Q --format csv': (
        0,
        'e0,e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11\n'
        '0,1,1,1,1,0,0,0,1,0,0,0\n'
        '1,0,1,1,0,1,0,0,0,1,0,0\n'
        '1,1,0,1,0,0,1,0,0,0,1,0\n'
        '1,1,1,0,0,0,0,1,0,0,0,1\n',
    ),
    'g4: ehrhart --graph @ --polytope P --format human': (
        0,
        'polytope: P\n'
        'denominator: 3\n'
        'minimum quasiperiod: 3\n'
        'period: 3\n'
        'residue 0: 1 + 2*t + 25/18*t^2 + 4/9*t^3 + 1/18*t^4\n'
        'residue 1: 10/9 + 2*t + 25/18*t^2 + 4/9*t^3 + 1/18*t^4\n'
        'residue 2: 1 + 2*t + 25/18*t^2 + 4/9*t^3 + 1/18*t^4\n',
    ),
    'g4: ehrhart --graph @ --polytope P --format json': (
        0,
        '{"constituents":[["1","2","25/18","4/9","1/18"],["10/9","2","25/18","4/9","1/18"],["1","2","25/18","4/9","1/18"]],"denominator":3,"minimum_quasiperiod":3,"period":3,"polytope":"P"}\n',
    ),
    'g4: ehrhart --graph @ --polytope Q --format human': (
        0,
        'polytope: Q\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + 11/6*t + t^2 + 1/6*t^3\n',
    ),
    'g4: ehrhart --graph @ --polytope Q --format json': (
        0,
        '{"constituents":[["1","11/6","1","1/6"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"Q"}\n',
    ),
    'g4: cf --graph @ --verify --format human': (
        0,
        'labels=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1] height=1 unrefuted up to m=3\n'
        'labels=[3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1] height=3 unrefuted up to m=3\n',
    ),
    'g4: cf --graph @ --verify --format json': (
        0,
        '[{"height":1,"labels":[0,0,0,0,0,0,0,0,0,0,0,0],"refuted":false},{"height":1,"labels":[0,1,1,1,1,0,0,0,1,0,0,0],"refuted":false},{"height":1,"labels":[1,0,1,1,0,1,0,0,0,1,0,0],"refuted":false},{"height":1,"labels":[1,1,0,1,0,0,1,0,0,0,1,0],"refuted":false},{"height":1,"labels":[1,1,1,0,0,0,0,1,0,0,0,1],"refuted":false},{"height":3,"labels":[3,3,3,3,1,1,1,1,1,1,1,1],"refuted":false}]\n',
    ),
    'g4: check --graph @ --format human': (
        0,
        'bipartite: yes\n'
        'leaves: none\n'
        'matching preclusion class: greater_than_one\n'
        'forced max edge: none\n'
        'certificate: no_certificate\n',
    ),
    'g4: check --graph @ --format json': (
        0,
        '{"bipartite":true,"certificate":"no_certificate","forced_max_edge":null,"forced_max_vacuous":false,"leaves":[],"matching_preclusion":"greater_than_one"}\n',
    ),
    'g4: decompose --graph @ --labeling @lab --format human': (
        0,
        'labels=[0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0] index=1\n'
        'labels=[1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0] index=1\n'
        'labels=[1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0] index=1\n'
        'labels=[1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1] index=1\n',
    ),
    'g4: decompose --graph @ --labeling @lab --format json': (
        0,
        '[{"index":1,"labels":[0,1,1,1,1,0,0,0,1,0,0,0]},{"index":1,"labels":[1,0,1,1,0,1,0,0,0,1,0,0]},{"index":1,"labels":[1,1,0,1,0,0,1,0,0,0,1,0]},{"index":1,"labels":[1,1,1,0,0,0,0,1,0,0,0,1]}]\n',
    ),
    'two_loops: count --graph @ -k 3 --format human': (0, '16\n'),
    'two_loops: count --graph @ -k 3 --format json': (0, '{"count":"16","k":3}\n'),
    'two_loops: count --graph @ -k 3 --format csv': (
        0,
        'k,count\n'
        '3,16\n',
    ),
    'two_loops: series --graph @ --kmax 4 --with-index --format human': (
        0,
        '0\t1\t1\n'
        '1\t4\t2\n'
        '2\t9\t3\n'
        '3\t16\t4\n'
        '4\t25\t5\n',
    ),
    'two_loops: series --graph @ --kmax 4 --with-index --format json': (
        0,
        '{"index_count":"1","k":0,"magic_count":"1"}\n'
        '{"index_count":"2","k":1,"magic_count":"4"}\n'
        '{"index_count":"3","k":2,"magic_count":"9"}\n'
        '{"index_count":"4","k":3,"magic_count":"16"}\n'
        '{"index_count":"5","k":4,"magic_count":"25"}\n',
    ),
    'two_loops: series --graph @ --kmax 4 --with-index --format csv': (
        0,
        'k,magic_count,index_count\n'
        '0,1,1\n'
        '1,4,2\n'
        '2,9,3\n'
        '3,16,4\n'
        '4,25,5\n',
    ),
    'two_loops: vertices --graph @ --polytope P --format human': (
        0,
        '(0, 0)\n'
        '(0, 1)\n'
        '(1, 0)\n'
        '(1, 1)\n',
    ),
    'two_loops: vertices --graph @ --polytope P --format json': (
        0,
        '[["0","0"],["0","1"],["1","0"],["1","1"]]\n',
    ),
    'two_loops: vertices --graph @ --polytope P --format csv': (
        0,
        'e0,e1\n'
        '0,0\n'
        '0,1\n'
        '1,0\n'
        '1,1\n',
    ),
    'two_loops: vertices --graph @ --polytope Q --format human': (
        0,
        '(0, 1)\n'
        '(1, 0)\n',
    ),
    'two_loops: vertices --graph @ --polytope Q --format json': (
        0,
        '[["0","1"],["1","0"]]\n',
    ),
    'two_loops: vertices --graph @ --polytope Q --format csv': (
        0,
        'e0,e1\n'
        '0,1\n'
        '1,0\n',
    ),
    'two_loops: ehrhart --graph @ --polytope P --format human': (
        0,
        'polytope: P\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + 2*t + t^2\n',
    ),
    'two_loops: ehrhart --graph @ --polytope P --format json': (
        0,
        '{"constituents":[["1","2","1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"P"}\n',
    ),
    'two_loops: ehrhart --graph @ --polytope Q --format human': (
        0,
        'polytope: Q\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + t\n',
    ),
    'two_loops: ehrhart --graph @ --polytope Q --format json': (
        0,
        '{"constituents":[["1","1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"Q"}\n',
    ),
    'two_loops: cf --graph @ --verify --format human': (
        0,
        'labels=[0, 0] height=1 unrefuted up to m=3\n'
        'labels=[0, 1] height=1 unrefuted up to m=3\n'
        'labels=[1, 0] height=1 unrefuted up to m=3\n'
        'labels=[1, 1] height=1 unrefuted up to m=3\n',
    ),
    'two_loops: cf --graph @ --verify --format json': (
        0,
        '[{"height":1,"labels":[0,0],"refuted":false},{"height":1,"labels":[0,1],"refuted":false},{"height":1,"labels":[1,0],"refuted":false},{"height":1,"labels":[1,1],"refuted":false}]\n',
    ),
    'two_loops: check --graph @ --format human': (
        0,
        'bipartite: no\n'
        'leaves: none\n'
        'matching preclusion class: no_pm\n'
        'forced max edge: none\n'
        'certificate: no_certificate\n',
    ),
    'two_loops: check --graph @ --format json': (
        0,
        '{"bipartite":false,"certificate":"no_certificate","forced_max_edge":null,"forced_max_vacuous":false,"leaves":[],"matching_preclusion":"no_pm"}\n',
    ),
    'two_loops: decompose --graph @ --labeling @lab --format human': (
        0,
        'labels=[0, 1] index=1\n'
        'labels=[1, 0] index=1\n'
        'labels=[1, 0] index=1\n',
    ),
    'two_loops: decompose --graph @ --labeling @lab --format json': (
        0,
        '[{"index":1,"labels":[0,1]},{"index":1,"labels":[1,0]},{"index":1,"labels":[1,0]}]\n',
    ),
    'bridged_blocks: count --graph @ -k 3 --format human': (0, '4\n'),
    'bridged_blocks: count --graph @ -k 3 --format json': (0, '{"count":"4","k":3}\n'),
    'bridged_blocks: count --graph @ -k 3 --format csv': (
        0,
        'k,count\n'
        '3,4\n',
    ),
    'bridged_blocks: series --graph @ --kmax 4 --with-index --format human': (
        0,
        '0\t1\t1\n'
        '1\t2\t1\n'
        '2\t3\t1\n'
        '3\t4\t1\n'
        '4\t5\t1\n',
    ),
    'bridged_blocks: series --graph @ --kmax 4 --with-index --format json': (
        0,
        '{"index_count":"1","k":0,"magic_count":"1"}\n'
        '{"index_count":"1","k":1,"magic_count":"2"}\n'
        '{"index_count":"1","k":2,"magic_count":"3"}\n'
        '{"index_count":"1","k":3,"magic_count":"4"}\n'
        '{"index_count":"1","k":4,"magic_count":"5"}\n',
    ),
    'bridged_blocks: series --graph @ --kmax 4 --with-index --format csv': (
        0,
        'k,magic_count,index_count\n'
        '0,1,1\n'
        '1,2,1\n'
        '2,3,1\n'
        '3,4,1\n'
        '4,5,1\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope P --format human': (
        0,
        '(0, 0, 0, 0, 0)\n'
        '(0, 1, 0, 1, 1)\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope P --format json': (
        0,
        '[["0","0","0","0","0"],["0","1","0","1","1"]]\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope P --format csv': (
        0,
        'e0,e1,e2,e3,e4\n'
        '0,0,0,0,0\n'
        '0,1,0,1,1\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope Q --format human': (
        0,
        '(0, 1, 0, 1, 1)\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope Q --format json': (
        0,
        '[["0","1","0","1","1"]]\n',
    ),
    'bridged_blocks: vertices --graph @ --polytope Q --format csv': (
        0,
        'e0,e1,e2,e3,e4\n'
        '0,1,0,1,1\n',
    ),
    'bridged_blocks: ehrhart --graph @ --polytope P --format human': (
        0,
        'polytope: P\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1 + t\n',
    ),
    'bridged_blocks: ehrhart --graph @ --polytope P --format json': (
        0,
        '{"constituents":[["1","1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"P"}\n',
    ),
    'bridged_blocks: ehrhart --graph @ --polytope Q --format human': (
        0,
        'polytope: Q\n'
        'denominator: 1\n'
        'minimum quasiperiod: 1\n'
        'period: 1\n'
        'residue 0: 1\n',
    ),
    'bridged_blocks: ehrhart --graph @ --polytope Q --format json': (
        0,
        '{"constituents":[["1"]],"denominator":1,"minimum_quasiperiod":1,"period":1,"polytope":"Q"}\n',
    ),
    'bridged_blocks: cf --graph @ --verify --format human': (
        0,
        'labels=[0, 0, 0, 0, 0] height=1 unrefuted up to m=3\n'
        'labels=[0, 1, 0, 1, 1] height=1 unrefuted up to m=3\n',
    ),
    'bridged_blocks: cf --graph @ --verify --format json': (
        0,
        '[{"height":1,"labels":[0,0,0,0,0],"refuted":false},{"height":1,"labels":[0,1,0,1,1],"refuted":false}]\n',
    ),
    'bridged_blocks: check --graph @ --format human': (
        0,
        'bipartite: yes\n'
        'leaves: c1, c2\n'
        'matching preclusion class: one\n'
        "forced max edge: ('b1', 'c1')\n"
        'certificate: polynomial\n',
    ),
    'bridged_blocks: check --graph @ --format json': (
        0,
        '{"bipartite":true,"certificate":"polynomial","forced_max_edge":["b1","c1"],"forced_max_vacuous":false,"leaves":[["c1",["b1","c1"]],["c2",["b2","c2"]]],"matching_preclusion":"one"}\n',
    ),
    'bridged_blocks: decompose --graph @ --labeling @lab --format human': (
        0,
        'labels=[0, 1, 0, 1, 1] index=1\n'
        'labels=[0, 1, 0, 1, 1] index=1\n',
    ),
    'bridged_blocks: decompose --graph @ --labeling @lab --format json': (
        0,
        '[{"index":1,"labels":[0,1,0,1,1]},{"index":1,"labels":[0,1,0,1,1]}]\n',
    ),
    '-: fn -n 3 -k 7 --format human': (0, '39\n'),
    '-: fn -n 3 -k 7 --format json': (0, '{"k":7,"n":3,"value":"39"}\n'),
    '-: fn -n 3 -k 7 --format csv': (
        0,
        'n,k,value\n'
        '3,7,39\n',
    ),
    'g4: vertices --graph @ --budget 5': (3, ''),
    'path3: vertices --graph @ --polytope Q --format human': (0, ''),
    'path3: vertices --graph @ --polytope Q --format json': (0, '[]\n'),
    'path3: vertices --graph @ --polytope Q --format csv': (0, 'e0,e1\n'),
    'path3: cf --graph @ --polytope Q --format human': (0, ''),
    'path3: cf --graph @ --polytope Q --format json': (0, '[]\n'),
    'path3: ehrhart --graph @ --polytope Q': (2, ''),
    'point: vertices --graph @ --format human': (0, '()\n'),
    'point: vertices --graph @ --format json': (0, '[[]]\n'),
    'point: vertices --graph @ --format csv': (0, '\n\n'),
    'point: series --graph @ --kmax 2 --format human': (
        0,
        '0\t1\n'
        '1\t1\n'
        '2\t1\n',
    ),
    'point: series --graph @ --kmax 2 --format json': (
        0,
        '{"k":0,"magic_count":"1"}\n'
        '{"k":1,"magic_count":"1"}\n'
        '{"k":2,"magic_count":"1"}\n',
    ),
    'point: series --graph @ --kmax 2 --format csv': (
        0,
        'k,magic_count\n'
        '0,1\n'
        '1,1\n'
        '2,1\n',
    ),
    'point: count --graph @ -k 0': (0, '1\n'),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_cli_output_is_unchanged(case, files, capsys, monkeypatch):
    monkeypatch.delenv("MAGIC_BUDGET", raising=False)
    name, _, command = case.partition(": ")
    argv = [files.get(name, {}).get(arg, arg) for arg in command.split()]
    code = main(argv)
    assert (code, capsys.readouterr().out) == GOLDEN[case]
