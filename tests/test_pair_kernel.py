"""pulses._overlap_at, the four-float pair kernel behind sweep rows, fits
and crossover, against the scalar kernel's overlap
_entry_overlap(*_jet(...)[:4], _target_conj(...)), bit for bit, on the sequences
the sweep and fit jobs evaluate: W1, W1x4 and every W222 branch, placed at
split 1 and 0.3, over a dense grid and the edge errors.  These sequences
repeat (angle, phase) pulses, which the property tests rarely draw.

Uses neither numpy nor pytest, so it also runs as a script on any supported
Python: PYTHONPATH=src python tests/test_pair_kernel.py"""

import math
import struct

from cpulse.analysis import _lin_grid
from cpulse.design import design_five_pulse, design_wn
from cpulse.pulses import (TargetRotation, _entry_overlap, _jet, _overlap_at, _target_conj,
                           embed_target)

TARGETS = (TargetRotation(math.pi, math.pi), TargetRotation(math.pi / 2, 0.3))
EDGE_ERRORS = (0.0, -0.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53))


def designed(target):
    """(label, corrector) for W1, W1x4 and the twelve W222 branches."""
    w222 = design_five_pulse(2, 2, 2, target)
    assert len(w222) == 12
    return ([("W1", design_wn(1, target).sequence), ("W1x4", design_wn(4, target).sequence)]
            + [(f"W222[{i}]", res.sequence) for i, res in enumerate(w222)])


def test_pair_kernel_is_jet_overlap_bit_for_bit():
    errors = list(_lin_grid(-0.99, 0.99, 2001)) + list(EDGE_ERRORS)
    for target in TARGETS:
        uc = _target_conj(target)
        for label, seq in designed(target):
            for split in (1.0, 0.3):
                full = embed_target(seq, target, split)
                at = _overlap_at(full, target)
                for e in errors:
                    pair = struct.pack("<2d", *at(e))
                    jet = struct.pack("<2d", *_entry_overlap(*_jet(full, e)[:4], uc))
                    assert pair == jet, (target, label, split, e)


if __name__ == "__main__":
    test_pair_kernel_is_jet_overlap_bit_for_bit()
    print("ok")
