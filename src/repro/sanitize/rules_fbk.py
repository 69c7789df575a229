"""FBK001 — feedback-signal parity between caches and their subclasses.

The scheduler–cache co-design contract (docs/schemes.md) is the same
shape as the observability one: every mode of the bit-identical matrix
must publish *byte-identical* feedback signal streams, because schedulers
(ccws/wasp/ciao) change issue decisions based on them — a dropped publish
is not a missing log line, it is a different simulation.

This rule reuses the OBS001 parity engine
(:func:`repro.sanitize.rules_obs.iter_parity_hits`) parameterized for the
channel idiom:

    fb.publish((_SIG_EVICT, ...))        # module-level alias
    ch.publish((Sig.FILL, ...))          # direct enum head
    _SIG_EVICT = int(Sig.EVICT)          # the alias declaration

and enforces:

1.  **Override parity** — a subclass overriding a method whose base
    implementation publishes signal kinds (for example a specialised
    ``Cache`` subclass) must call ``super()`` or publish the same kinds
    itself.
2.  **Kind coverage** — when the tree defines ``Sig``, every member has
    at least one publish site and every published kind is a member.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, rule
from .rules_obs import ParitySpec, iter_parity_hits

FBK_SPEC = ParitySpec(
    enum_name="Sig",
    methods=frozenset({"publish", "publish_checked"}),
    verb="publication",
    stream="signal streams",
    dead_msg="dead schema entries rot the channel and its subscribers",
)


@rule(
    "FBK001",
    Severity.ERROR,
    "feedback publish parity broken between a cache and its twin",
)
def check_feedback_parity(ctx: SanitizeContext) -> Iterator[Hit]:
    yield from iter_parity_hits(ctx, FBK_SPEC)
