"""Bitwise guard on the record path.

Every problem is recorded at a small size in both modes, in memory and
spilled, and swept with every strategy of that mode.  One SHA-256 over the
s/d stream bytes and the gradient bytes must match the digest pinned when
the guard was written, so any change to overloading, ``Tape.record`` or
``BlockStore.append`` that moves a single bit fails here.
"""

import hashlib
import struct

import pytest

from adtape import DAG, DCG, propagate, record_problem
from adtape.interpret import STRATEGY_MODE

from helpers import SMALL_PROBLEMS as PROBLEMS
from helpers import STORES

#: sha256 of the s bytes, d bytes and each strategy's gradient bytes;
#: libor_mc was re-pinned when the divisor's partial became -(a / b) / b
#: (the only problem here whose division partials moved)
PINNED = {
    ("intro", DAG):
        "0d3aaeb6ae14c16761e80d006988ef5366a1f9e6d73e161f07b753cfc4ac1f54",
    ("intro", DCG):
        "f2d8c43cc695150f59439caf982e77bec37bef0c0045c63fd403cb53154003f2",
    ("bs_mc", DAG):
        "ea390fab815ea7a948e652875d7e50fdaf4a2a0b1d375915eded6a3d1e888943",
    ("bs_mc", DCG):
        "3338e635d89cb0018ef8aa21c0e658b678928e4b30d08b5c739493fdddf485cf",
    ("bs_fd", DAG):
        "04a22077be906ec5d900641628e496768fa8cf767455973b659f0ddfb4c38a44",
    ("bs_fd", DCG):
        "a63202e357fa05d4aa18dc0908db8a091112a45fb683974e28afd1d09ef463c8",
    ("burgers", DAG):
        "f4dc60c1e397ff14cab429f973d684e4154ae8327efa2d0fcbd5a675cdcc270a",
    ("burgers", DCG):
        "21dc295a509b18d7edef3e9e6dce37e2a0dd71c9afcb86ab3cd43442dea9d89d",
    ("libor_mc", DAG):
        "93a71cd632c95aa97759cf5369a7fe9e57cb57320ac6d2b7c961cc8fd241ed53",
    ("libor_mc", DCG):
        "9a6995eb868e84a6dc58a442db750172b9173bba2f1f3aa1fab705de0f5f8030",
}


def stream_and_gradient_digest(name, mode, store_config):
    problem = PROBLEMS[name]()
    tape = record_problem(problem, problem.default_point(), mode=mode,
                          **store_config)
    s, d = tape.dump()
    h = hashlib.sha256()
    h.update(struct.pack(f"<{len(s)}q", *s))
    h.update(struct.pack(f"<{len(d)}d", *d))
    seed = [1.0 + 0.25 * i for i in range(tape.m)]
    for strategy, strategy_mode in STRATEGY_MODE.items():
        if strategy_mode == mode:
            grad = propagate(tape, seed, strategy)
            h.update(struct.pack(f"<{len(grad)}d", *grad))
    return h.hexdigest()


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("name,mode", sorted(PINNED))
def test_streams_and_gradients_match_pinned_digest(name, mode, store,
                                                   tmp_path):
    config = dict(STORES[store])
    if config:
        config["spill_dir"] = str(tmp_path)
    assert stream_and_gradient_digest(name, mode, config) == PINNED[name, mode]
