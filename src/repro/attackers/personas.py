"""Pluggable attacker personas: behaviour + arrival + origin profiles.

The paper's Section 4.2/4.8 taxonomy (curious, gold diggers, spammers,
hijackers) describes what criminals *did* in one 2016 deployment; the
design space of workloads is far wider — Email Babel varies account
language and observes different criminal engagement, and MIGP motivates
modelling credential-stuffing-style automated probes.  This module makes
the attacker layer open-ended:

* :class:`Persona` — one named attacker archetype bundling a behaviour
  policy (what the attacker does once logged in), optional arrival
  hooks (when it shows up), and optional profile overrides (how it
  connects).  Subclass it and decorate with :func:`register_persona` to
  add a new workload without touching any core module.
* :class:`BehaviorPolicy` — the per-visit step API
  :class:`~repro.attackers.agent.AttackerAgent` drives; the agent no
  longer dispatches on :class:`~repro.attackers.sophistication.
  TaxonomyClass`.
* :class:`PersonaMix` — a JSON-serialisable, per-outlet weighted table
  of persona combinations; :class:`repro.api.Scenario` carries one and
  the population builder draws from it.
* ``personas`` — the process-wide :class:`PersonaRegistry`, pre-loaded
  with the paper's four classes plus new archetypes (``stuffing_bot``,
  ``lurker``, ``data_exfiltrator``, ``locale_sensitive``).

The four paper personas reproduce the seed's behaviour bit-for-bit:
their hooks consume the population RNG stream in exactly the order the
hard-coded dispatch did, which the ``paper_default`` golden tests pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.attackers import actions
from repro.attackers.arrival import lognormal_from_median, sample_burst_arrival
from repro.attackers.sophistication import SophisticationLevel, TaxonomyClass
from repro.core.groups import LocationHint, OutletKind
from repro.errors import ConfigurationError
from repro.netsim.anonymity import OriginKind
from repro.sim.clock import minutes

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.attackers.agent import AttackerAgent
    from repro.attackers.population import PopulationConfig
    from repro.leaks.outlet import LeakEvent
    from repro.webmail.service import WebmailService
    from repro.webmail.sessions import Session


# ----------------------------------------------------------------------
# the per-visit step API
# ----------------------------------------------------------------------
@dataclass(slots=True)
class VisitContext:
    """Everything one policy step sees during one agent visit.

    Agents reuse one context across visits (mutating ``session`` /
    ``now`` / ``is_first``), so policies must read it during
    :meth:`BehaviorPolicy.on_visit` and not retain it between visits.
    """

    agent: "AttackerAgent"
    service: "WebmailService"
    session: "Session"
    rng: random.Random
    now: float
    is_first: bool

    @property
    def outcome(self):
        """The agent's ground-truth outcome trace."""
        return self.agent.outcome


class BehaviorPolicy:
    """One persona's in-account behaviour, stepped once per visit.

    Policies are built per agent (they may carry per-agent state) and
    run in combo order inside one shared ``try``: a mid-visit
    :class:`~repro.errors.WebmailError` (account suspension) aborts the
    remaining steps of that visit, exactly like the seed's dispatch.
    """

    #: Automated clients do not linger in the mailbox: when *every*
    #: policy on an agent is machine-paced, the agent skips the
    #: end-of-visit re-authentication that makes human visit durations
    #: observable on the activity page (one login, zero duration).
    machine_paced: bool = False

    def on_visit(self, ctx: VisitContext) -> None:
        raise NotImplementedError


class CuriousPolicy(BehaviorPolicy):
    """Look at the inbox, touch nothing (§4.2 'curious')."""

    def on_visit(self, ctx: VisitContext) -> None:
        actions.act_check_inbox(ctx.service, ctx.session, ctx.now)


class GoldDiggerPolicy(BehaviorPolicy):
    """Search for value signals and read the hits, every visit."""

    def on_visit(self, ctx: VisitContext) -> None:
        queries, reads = actions.act_gold_dig(
            ctx.service, ctx.session, ctx.rng, ctx.now
        )
        ctx.outcome.searches.extend(queries)
        ctx.outcome.emails_read += reads


class HijackerPolicy(BehaviorPolicy):
    """Assess, then change the password on the first visit."""

    def on_visit(self, ctx: VisitContext) -> None:
        if not ctx.is_first:
            return
        if ctx.rng.random() < 0.5:
            ctx.outcome.emails_read += actions.act_read_recent(
                ctx.service, ctx.session, ctx.rng, ctx.now
            )
        new_password = actions.act_hijack(
            ctx.service, ctx.session, ctx.rng, ctx.now
        )
        # The hijacker knows the new password; later visits work.
        ctx.agent.adopt_password(new_password)
        ctx.outcome.hijacked = True
        ctx.outcome.new_password = new_password


class SpammerPolicy(BehaviorPolicy):
    """Blast one spam burst on the first visit."""

    def on_visit(self, ctx: VisitContext) -> None:
        if not ctx.is_first:
            return
        # Bursts stay under the provider's per-hour threshold most of
        # the time; greedier runs risk mid-burst suspension.
        count = ctx.rng.randint(60, 110)
        burst = minutes(ctx.rng.uniform(120, 240))
        ctx.outcome.emails_sent += actions.act_send_spam(
            ctx.service,
            ctx.session,
            ctx.rng,
            ctx.now,
            email_count=count,
            burst_seconds=burst,
        )


class LoginOnlyPolicy(BehaviorPolicy):
    """Validate the credential and leave (credential-stuffing probe)."""

    machine_paced = True

    def on_visit(self, ctx: VisitContext) -> None:
        # The login itself is the observable event; automated validators
        # do not render the mailbox.
        ctx.service.logout(ctx.session)


class LurkerPolicy(BehaviorPolicy):
    """Low-and-slow: skim at most one recent message per visit."""

    read_probability: float = 0.6

    def on_visit(self, ctx: VisitContext) -> None:
        if ctx.rng.random() < self.read_probability:
            ctx.outcome.emails_read += actions.act_read_recent(
                ctx.service, ctx.session, ctx.rng, ctx.now, max_reads=1
            )


#: Where bulk exfiltration jobs forward their loot (sinkholed like all
#: outbound honey traffic).
EXFIL_DROP_ADDRESS = "dropbox@exfil-collect.example"


class DataExfiltratorPolicy(BehaviorPolicy):
    """Bulk search-and-forward: harvest on the first visit, then sweep."""

    def on_visit(self, ctx: VisitContext) -> None:
        if not ctx.is_first:
            ctx.outcome.emails_read += actions.act_read_recent(
                ctx.service, ctx.session, ctx.rng, ctx.now
            )
            return
        queries, reads = actions.act_gold_dig(
            ctx.service,
            ctx.session,
            ctx.rng,
            ctx.now,
            max_searches=4,
            max_reads_per_search=3,
        )
        ctx.outcome.searches.extend(queries)
        ctx.outcome.emails_read += reads
        for index in range(ctx.rng.randint(2, 4)):
            subject = f"fwd: {queries[index % len(queries)]} findings"
            ctx.service.send_email(
                ctx.session,
                subject,
                "archive attached - full mailbox extract batch "
                f"{index + 1}",
                (EXFIL_DROP_ADDRESS,),
                ctx.now + index * 45.0,
            )
            ctx.outcome.emails_sent += 1


class LocaleSensitivePolicy(BehaviorPolicy):
    """Email-Babel-style: engage only when the content language fits."""

    def __init__(self, engaged: bool) -> None:
        self.engaged = engaged

    def on_visit(self, ctx: VisitContext) -> None:
        if not self.engaged:
            actions.act_check_inbox(ctx.service, ctx.session, ctx.now)
            return
        queries, reads = actions.act_gold_dig(
            ctx.service, ctx.session, ctx.rng, ctx.now, max_searches=1
        )
        ctx.outcome.searches.extend(queries)
        ctx.outcome.emails_read += reads


# ----------------------------------------------------------------------
# persona protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileOverrides:
    """A persona's fixed connection profile, replacing the outlet draw.

    When a persona returns one of these from :meth:`Persona.
    profile_overrides`, the population builder skips the default
    malleability/anonymisation/device sampling entirely and uses these
    values.  A ``DIRECT`` origin with ``origin_city=None`` still samples
    a city from the outlet's background mix.
    """

    origin: OriginKind = OriginKind.DIRECT
    origin_city: str | None = None
    level: SophisticationLevel | None = None
    hide_user_agent: bool = False
    location_malleable: bool = False
    android_device: bool = False
    infected_host: bool = False


class Persona:
    """One named attacker archetype.

    Subclass and override what differs from the defaults; every hook
    has a no-op default, so the minimal persona is a name, a taxonomy
    equivalence and :meth:`build_policy`.  The four paper personas must
    consume the population RNG exactly as the seed's hard-coded tables
    did, so their hooks draw nothing (except the hijacker's extra
    arrival delay, which the seed also drew).

    Attributes:
        name: registry key; also the ground-truth label telemetry
            records per access.
        summary: one line for ``repro personas``.
        taxonomy: observable-equivalent taxonomy classes.  Drives the
            default visit-count draw, profile validation, and the
            analysis layer's expectations.
        expected_labels: the :class:`~repro.analysis.taxonomy.
            TaxonomyLabel` *values* the paper's classifier should emit
            for this persona — the analysis signature table scores the
            classifier's precision/recall against these.
    """

    name: str = ""
    summary: str = ""
    taxonomy: frozenset[TaxonomyClass] = frozenset({TaxonomyClass.CURIOUS})
    expected_labels: frozenset[str] = frozenset({"curious"})

    def build_policy(
        self,
        rng: random.Random,
        *,
        event: "LeakEvent",
        config: "PopulationConfig",
    ) -> BehaviorPolicy:
        """A fresh policy for one agent (may draw per-agent traits)."""
        raise NotImplementedError

    def sample_arrival(
        self,
        rng: random.Random,
        *,
        event: "LeakEvent",
        config: "PopulationConfig",
    ) -> float | None:
        """Leak-to-first-visit delay in sim-seconds, or ``None`` for the
        outlet's default arrival process."""
        return None

    def extra_arrival_delay(
        self, rng: random.Random, config: "PopulationConfig"
    ) -> float:
        """Extra days added to the sampled arrival (0 = no draw)."""
        return 0.0

    def visit_plan(
        self,
        rng: random.Random,
        *,
        outlet: OutletKind,
        config: "PopulationConfig",
    ) -> tuple[int, float] | None:
        """(visits, span_days), or ``None`` for the outlet default."""
        return None

    def profile_overrides(
        self,
        rng: random.Random,
        *,
        outlet: OutletKind,
        config: "PopulationConfig",
    ) -> ProfileOverrides | None:
        """Fixed connection profile, or ``None`` for the outlet draw."""
        return None

    def describe(self) -> str:
        classes = ",".join(sorted(c.value for c in self.taxonomy))
        labels = ",".join(sorted(self.expected_labels))
        return (
            f"{self.name}: {self.summary or '(no summary)'}\n"
            f"  taxonomy={classes} expected_labels={labels}"
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class PersonaRegistry:
    """Name -> :class:`Persona` mapping with introspection helpers."""

    def __init__(self) -> None:
        self._entries: dict[str, Persona] = {}

    def register(self, persona: Persona, *, replace: bool = False) -> None:
        if not persona.name:
            raise ConfigurationError("persona needs a non-empty name")
        if persona.name in self._entries and not replace:
            raise ConfigurationError(
                f"persona {persona.name!r} is already registered"
            )
        self._entries[persona.name] = persona

    def get(self, name: str) -> Persona:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names())
            raise ConfigurationError(
                f"unknown persona {name!r}; known personas: {known}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def signature_table(self) -> dict[str, frozenset[str]]:
        """persona name -> expected classifier labels (string values)."""
        return {
            name: frozenset(entry.expected_labels)
            for name, entry in self._entries.items()
        }

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[Persona]:
        for name in self.names():
            yield self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def __reduce__(self):
        # The process-wide registry pickles by reference, never by
        # value: serializing its entries would drag every registered
        # factory into the payload (including ones defined in modules
        # the unpickling process cannot import, e.g. ad-hoc personas a
        # test registered), and a receiving process wants *its*
        # registry anyway.  Custom registries still pickle by value.
        if self is personas:
            return (_process_registry, ())
        return (PersonaRegistry, (), self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _process_registry() -> "PersonaRegistry":
    return personas


#: The process-wide registry every entry point consults.
personas = PersonaRegistry()


def register_persona(
    cls: type | None = None,
    *,
    registry: PersonaRegistry | None = None,
    replace: bool = False,
) -> Callable[[type], type] | type:
    """Class decorator: instantiate a :class:`Persona` subclass and
    register it under its ``name``.

    Usage::

        @register_persona
        class Ransomware(Persona):
            name = "ransomware"
            ...

    Registration mutates the process-global registry: worker processes
    only see runtime-registered personas when they inherit the parent's
    memory (``fork``, the Linux default) or import the registering
    module themselves.  Under the ``spawn`` start method, register
    personas in a module the workers import, or run
    :class:`~repro.api.BatchRunner` with ``jobs=1``.
    """

    def decorate(klass: type) -> type:
        target = personas if registry is None else registry
        target.register(klass(), replace=replace)
        return klass

    if cls is not None:
        return decorate(cls)
    return decorate


# ----------------------------------------------------------------------
# the paper's four classes as personas (bit-for-bit equivalents)
# ----------------------------------------------------------------------
@register_persona
class CuriousPersona(Persona):
    name = "curious"
    summary = "logs in, looks at the inbox, touches nothing (§4.2)"
    taxonomy = frozenset({TaxonomyClass.CURIOUS})
    expected_labels = frozenset({"curious"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return CuriousPolicy()


@register_persona
class GoldDiggerPersona(Persona):
    name = "gold_digger"
    summary = "searches for financial value signals and reads hits (§4.2)"
    taxonomy = frozenset({TaxonomyClass.GOLD_DIGGER})
    expected_labels = frozenset({"gold_digger"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return GoldDiggerPolicy()


@register_persona
class SpammerPersona(Persona):
    name = "spammer"
    summary = "blasts one spam burst through the account (§4.2)"
    taxonomy = frozenset({TaxonomyClass.SPAMMER})
    expected_labels = frozenset({"spammer"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return SpammerPolicy()


@register_persona
class HijackerPersona(Persona):
    name = "hijacker"
    summary = "changes the password, locking out the owner (§4.2)"
    taxonomy = frozenset({TaxonomyClass.HIJACKER})
    expected_labels = frozenset({"hijacker"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return HijackerPolicy()

    def extra_arrival_delay(self, rng, config) -> float:
        # Hijackers assess before locking owners out, so their arrivals
        # lag the curious crowd (same draw the seed made).
        return lognormal_from_median(
            rng, config.hijacker_extra_delay_median_days, 1.0
        )


# ----------------------------------------------------------------------
# new archetypes beyond the paper
# ----------------------------------------------------------------------
@register_persona
class StuffingBotPersona(Persona):
    name = "stuffing_bot"
    summary = (
        "credential-stuffing bot: one burst login-only validation probe "
        "shortly after the leak (MIGP-style automated access)"
    )
    taxonomy = frozenset({TaxonomyClass.CURIOUS})
    expected_labels = frozenset({"curious"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return LoginOnlyPolicy()

    def sample_arrival(self, rng, *, event, config) -> float:
        # Stuffing waves hit leak dumps almost immediately and tightly
        # clustered, unlike the human lognormal tail.
        return sample_burst_arrival(
            rng,
            burst_center_days=2.0,
            spread_days=1.0,
            horizon_days=config.horizon_days,
        )

    def visit_plan(self, rng, *, outlet, config) -> tuple[int, float]:
        return 1, 0.0

    def profile_overrides(self, rng, *, outlet, config) -> ProfileOverrides:
        # Datacenter proxies, headless clients with no user agent.
        return ProfileOverrides(
            origin=OriginKind.PROXY,
            hide_user_agent=True,
            level=SophisticationLevel.HIGH,
        )


@register_persona
class LurkerPersona(Persona):
    name = "lurker"
    summary = (
        "long-lived low-and-slow reader: many short visits over months, "
        "at most one message skimmed per visit"
    )
    taxonomy = frozenset({TaxonomyClass.GOLD_DIGGER})
    expected_labels = frozenset({"gold_digger"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return LurkerPolicy()

    def visit_plan(self, rng, *, outlet, config) -> tuple[int, float]:
        visits = rng.randint(6, 12)
        span = rng.uniform(40.0, min(120.0, config.horizon_days))
        return visits, span


@register_persona
class DataExfiltratorPersona(Persona):
    name = "data_exfiltrator"
    summary = (
        "bulk search-and-forward: harvests the mailbox and forwards the "
        "loot to a drop address over Tor"
    )
    taxonomy = frozenset(
        {TaxonomyClass.GOLD_DIGGER, TaxonomyClass.SPAMMER}
    )
    expected_labels = frozenset({"gold_digger", "spammer"})

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        return DataExfiltratorPolicy()

    def visit_plan(self, rng, *, outlet, config) -> tuple[int, float]:
        return rng.randint(2, 3), rng.uniform(1.0, 5.0)

    def profile_overrides(self, rng, *, outlet, config) -> ProfileOverrides:
        return ProfileOverrides(
            origin=OriginKind.TOR, level=SophisticationLevel.HIGH
        )


@register_persona
class LocaleSensitivePersona(Persona):
    name = "locale_sensitive"
    summary = (
        "Email-Babel-style language gating: engages with accounts whose "
        "advertised owner matches the attacker's locale, skims the rest"
    )
    taxonomy = frozenset({TaxonomyClass.GOLD_DIGGER})
    expected_labels = frozenset({"gold_digger"})

    #: Engagement probabilities by whether the leak advertises an
    #: anglophone owner (our decoy corpora are English): Email Babel
    #: observed markedly lower criminal activity on language-mismatched
    #: accounts.
    match_engage_prob: float = 0.85
    mismatch_engage_prob: float = 0.25

    def build_policy(self, rng, *, event, config) -> BehaviorPolicy:
        hint = event.content.location_hint
        engage_prob = (
            self.match_engage_prob
            if hint is not LocationHint.NONE
            else self.mismatch_engage_prob
        )
        return LocaleSensitivePolicy(engaged=rng.random() < engage_prob)


# ----------------------------------------------------------------------
# persona mixes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MixEntry:
    """One weighted persona combination inside an outlet's mix.

    ``personas`` is a tuple of registry names executed in order per
    visit (the paper's non-exclusive class overlaps, e.g.
    ``("gold_digger", "hijacker")``).
    """

    personas: tuple[str, ...]
    weight: float

    def __post_init__(self) -> None:
        if not self.personas:
            raise ConfigurationError("mix entry needs at least one persona")
        if not all(isinstance(name, str) and name for name in self.personas):
            raise ConfigurationError(
                f"bad persona names in mix entry: {self.personas!r}"
            )
        if not self.weight > 0.0:
            raise ConfigurationError(
                f"mix entry weight must be positive, got {self.weight!r}"
            )

    @property
    def label(self) -> str:
        return "+".join(self.personas)


#: Tolerance for per-outlet weight sums (weights are probabilities).
_WEIGHT_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PersonaMix:
    """Per-outlet weighted persona-combination tables.

    Immutable, hashable-free value object that serializes losslessly;
    :meth:`draw` consumes exactly one uniform draw per multi-entry
    outlet (and none for single-entry outlets), which is what keeps the
    paper mix bit-for-bit equivalent to the seed's hard-coded tables.
    """

    outlets: tuple[tuple[str, tuple[MixEntry, ...]], ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for outlet_value, entries in self.outlets:
            if outlet_value in seen:
                raise ConfigurationError(
                    f"duplicate outlet {outlet_value!r} in persona mix"
                )
            seen.add(outlet_value)
            try:
                OutletKind(outlet_value)
            except ValueError:
                known = ", ".join(kind.value for kind in OutletKind)
                raise ConfigurationError(
                    f"unknown outlet {outlet_value!r} in persona mix; "
                    f"known outlets: {known}"
                ) from None
            if not entries:
                raise ConfigurationError(
                    f"persona mix for outlet {outlet_value!r} is empty"
                )
            total = sum(entry.weight for entry in entries)
            if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
                raise ConfigurationError(
                    f"persona mix weights for outlet {outlet_value!r} "
                    f"sum to {total:g}, expected 1"
                )
        # Canonical outlet order (OutletKind declaration order) so two
        # mixes with the same content compare equal regardless of how
        # their tables were keyed (JSON round trips sort object keys).
        order = {kind.value: index for index, kind in enumerate(OutletKind)}
        object.__setattr__(
            self,
            "outlets",
            tuple(sorted(self.outlets, key=lambda kv: order[kv[0]])),
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Mapping[
            OutletKind | str,
            Sequence[tuple[Sequence[str] | str, float]],
        ],
    ) -> "PersonaMix":
        """Build from ``{outlet: [(personas, weight), ...]}``.

        Persona combos may be a single name or a sequence of names.
        """
        outlets = []
        for outlet, rows in table.items():
            value = outlet.value if isinstance(outlet, OutletKind) else outlet
            entries = []
            for combo, weight in rows:
                if isinstance(combo, str):
                    combo = (combo,)
                entries.append(MixEntry(tuple(combo), float(weight)))
            outlets.append((value, tuple(entries)))
        return cls(outlets=tuple(outlets))

    @classmethod
    def paper(cls) -> "PersonaMix":
        """The seed's calibrated Figure 2 / Section 4.2 mix tables.

        Entry order matters: the cumulative draw walks it, so the order
        here reproduces the seed's ``_CLASS_MIX`` draws exactly.
        """
        return cls.from_table(
            {
                OutletKind.PASTE: (
                    (("curious",), 0.690),
                    (("gold_digger",), 0.150),
                    (("hijacker",), 0.070),
                    (("gold_digger", "hijacker"), 0.040),
                    (("hijacker", "spammer"), 0.025),
                    (("gold_digger", "spammer"), 0.025),
                ),
                OutletKind.FORUM: (
                    (("curious",), 0.640),
                    (("gold_digger",), 0.260),
                    (("gold_digger", "hijacker"), 0.040),
                    (("hijacker",), 0.050),
                    (("hijacker", "spammer"), 0.010),
                ),
                OutletKind.MALWARE: (
                    (("curious",), 1.0),
                ),
            }
        )

    @classmethod
    def single(
        cls,
        name: str,
        outlets: Sequence[OutletKind | str] = (
            OutletKind.PASTE,
            OutletKind.FORUM,
            OutletKind.MALWARE,
        ),
    ) -> "PersonaMix":
        """Every visitor on every listed outlet is ``name``."""
        return cls.from_table(
            {outlet: ((name, 1.0),) for outlet in outlets}
        )

    def with_outlet(
        self,
        outlet: OutletKind | str,
        rows: Sequence[tuple[Sequence[str] | str, float]],
    ) -> "PersonaMix":
        """A copy with one outlet's table replaced (or added)."""
        value = outlet.value if isinstance(outlet, OutletKind) else outlet
        replacement = PersonaMix.from_table({value: rows})
        new_entries = replacement.entries_for(value)
        outlets = tuple(
            (existing, new_entries if existing == value else entries)
            for existing, entries in self.outlets
        )
        if value not in dict(self.outlets):
            outlets += ((value, new_entries),)
        return PersonaMix(outlets=outlets)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def outlet_values(self) -> tuple[str, ...]:
        return tuple(value for value, _ in self.outlets)

    def entries_for(self, outlet: OutletKind | str) -> tuple[MixEntry, ...]:
        value = outlet.value if isinstance(outlet, OutletKind) else outlet
        for outlet_value, entries in self.outlets:
            if outlet_value == value:
                return entries
        return ()

    def persona_names(self) -> set[str]:
        """Every persona name referenced anywhere in the mix."""
        return {
            name
            for _, entries in self.outlets
            for entry in entries
            for name in entry.personas
        }

    def validate(
        self, registry: PersonaRegistry | None = None
    ) -> "PersonaMix":
        """Resolve every persona name; raises
        :class:`~repro.errors.ConfigurationError` (listing the known
        names) on the first unknown one.  Returns ``self`` for
        chaining."""
        reg = registry if registry is not None else personas
        for name in sorted(self.persona_names()):
            reg.get(name)
        return self

    def draw(
        self, outlet: OutletKind | str, rng: random.Random
    ) -> tuple[str, ...]:
        """Draw one persona combination for a visitor on ``outlet``.

        Single-entry outlets short-circuit without touching the RNG;
        multi-entry outlets consume exactly one uniform draw (the
        seed's cumulative-scan semantics).
        """
        entries = self.entries_for(outlet)
        if not entries:
            value = outlet.value if isinstance(outlet, OutletKind) else outlet
            raise ConfigurationError(
                f"persona mix has no entries for outlet {value!r} "
                f"(outlets: {', '.join(self.outlet_values()) or 'none'})"
            )
        if len(entries) == 1:
            return entries[0].personas
        roll = rng.random()
        cumulative = 0.0
        for entry in entries:
            cumulative += entry.weight
            if roll < cumulative:
                return entry.personas
        return entries[-1].personas

    def summary(self) -> str:
        """Compact one-line rendering for ``describe()`` output."""
        parts = []
        for outlet_value, entries in self.outlets:
            rendered = ",".join(
                f"{entry.label}:{entry.weight:g}" for entry in entries
            )
            parts.append(f"{outlet_value}[{rendered}]")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "outlets": {
                outlet_value: [
                    {
                        "personas": list(entry.personas),
                        "weight": entry.weight,
                    }
                    for entry in entries
                ]
                for outlet_value, entries in self.outlets
            }
        }

    @classmethod
    def from_dict(
        cls, data: dict, *, registry: PersonaRegistry | None = None
    ) -> "PersonaMix":
        """Rebuild a mix, validating persona names against ``registry``
        (the global one by default)."""
        try:
            outlet_table = data["outlets"]
            table = {
                outlet_value: [
                    (tuple(row["personas"]), float(row["weight"]))
                    for row in rows
                ]
                for outlet_value, rows in outlet_table.items()
            }
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"bad persona mix payload: {exc!r}"
            ) from exc
        try:
            mix = cls.from_table(table)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad persona mix payload: {exc}"
            ) from exc
        return mix.validate(registry)


def policies_for_personas(
    names: Sequence[str],
    rng: random.Random,
    *,
    event: "LeakEvent",
    config: "PopulationConfig",
    registry: PersonaRegistry | None = None,
) -> list[BehaviorPolicy]:
    """Build the policy chain for a persona combination."""
    reg = registry if registry is not None else personas
    return [
        reg.get(name).build_policy(rng, event=event, config=config)
        for name in names
    ]
