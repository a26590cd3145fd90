"""Tape leaves over a model's parameter arrays.

Parameters are plain arrays, views into the model's ``flat`` vector; the
tape forwards (``Model.encode``/``decode``, ``flow.flow_forward``) wrap each
one in a fresh tensor, which no gradient can be asked of afterwards. A test
that needs tape gradients with respect to the parameters builds its forward
on ``leaf_twin(model)`` and passes ``twin.params()`` to ``dc.grad``.
"""

from dataclasses import fields, replace

from densitydescent import diffcore as dc
from densitydescent.flow import PARAM_NAMES, FlowModel


def leaf_twin(model):
    """A copy of a ``semisup.Model`` or ``flow.FlowModel`` whose parameters
    are leaf tensors. ``dc.tensor`` shares the arrays' memory, so the leaves
    hold the model's values, now and after it is updated in place."""
    if isinstance(model, FlowModel):
        return replace(model, blocks=[
            replace(b, **{name: dc.tensor(getattr(b, name)) for name in PARAM_NAMES})
            for b in model.blocks])
    return replace(model, **{f.name: dc.tensor(getattr(model, f.name))
                             for f in fields(model) if f.name != "flat"})
