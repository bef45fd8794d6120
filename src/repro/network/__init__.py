"""Network realism: link models, region matrices, helper classes.

The paper's environment is placeless — every helper is one hop away and
an observed capacity is the helper's upload bandwidth, full stop.  This
package adds the path between viewer and helper: per-link latency,
jitter and loss folding into the *observed* capacity
(:class:`~repro.network.links.LinkEffectProcess`), multi-region RTT
matrices with contiguous helper placement
(:class:`~repro.network.regions.RegionTopology`), and heterogeneous
helper classes — seedbox / residential / mobile — registered as reusable
profiles (:mod:`repro.network.classes`).

Everything composes through the capacity-transform pipeline
(``CapacitySpec.transforms`` + the ``network`` spec section; see
:mod:`repro.spec.model`), and every effect is applied array-at-a-time so
the vectorized round loop stays free of per-helper Python work.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.network.links": [
        "ClampedCapacityProcess",
        "LinkEffectProcess",
        "LinkParameters",
        "compile_link_parameters",
    ],
    "repro.network.regions": ["RegionTopology"],
    "repro.network.classes": [
        "HELPER_CLASSES",
        "HelperClassProfile",
        "assign_helper_classes",
        "register_helper_class",
    ],
})
