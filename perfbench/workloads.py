"""The benchmark's fixed workloads.

Each workload is one ``snmesh`` command line run through ``snmesh.cli.main``.
Inputs are fixed presets; nothing is generated at random, so ``--seed`` only
labels a run.  ``cache`` says which oracle cache the command sees:

* ``warm``: a fresh temp copy of the repository's committed ``.snmesh_cache``;
* ``cold``: an empty temp directory, so every oracle is built and written;
* ``none``: an empty temp directory the command is not expected to touch.

The set-up measurement builds the ``TransportSystem`` that the command's own
settings describe, and the correctness check compares the command's CSV with
the seed's copy under ``reference/<name>/``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    cache: str

    @property
    def output(self):
        return {"solve": "solution.csv", "converge": "convergence.csv"}[self.argv[0]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="square-source-study",
            argv=("converge", "--preset", "square-source", "--sweep", "order",
                  "--values", "1,2", "--K", "16",
                  "--variants", "standard+static,uncollided+moving"),
            cache="warm",
        ),
        Workload(
            name="gaussian-pulse-cold-oracle",
            argv=("converge", "--preset", "gaussian-pulse", "--sweep", "order",
                  "--values", "2,4,6,8,10", "--K", "4", "--N", "8", "--t", "0.5"),
            cache="cold",
        ),
        Workload(
            name="gaussian-source-solve",
            argv=("solve", "--preset", "gaussian-source", "--M", "8", "--K", "16"),
            cache="none",
        ),
    )
}
