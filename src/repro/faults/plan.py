"""Seeded, replayable fault plans and the process-global injector.

A :class:`FaultPlan` is a declarative list of :class:`FaultRule`s, each
naming a **fault site** — a string like ``"shard.worker"`` or
``"wal.append"`` that the library hits via :func:`fault_site` at the
exact points where production deployments fail — and the fault to
inject there: a worker crash, a hang, a failing IO call, a torn write,
or a transient connection error.

Plans are JSON-lossless (``to_dict``/``from_dict``/``to_json``/
``from_json``) and travel to child processes through one environment
variable (:data:`FAULTS_ENV`), so forked shard workers and ``python -m
repro run`` subprocesses inject at the named sites **without any code
changes**: the first :func:`fault_site` call in any process lazily
loads the plan from the environment.

Determinism discipline:

* rule matching is by site name, an exact ``match`` filter over the
  site's context kwargs, and a per-rule matched-hit counter
  (``at_hit``) — all independent of timing and scheduling;
* probabilistic rules draw from a hash of ``(seed, rule, hit)``, never
  from global RNG state, so a replayed plan fires identically;
* cross-process firing budgets (``times``) are enforced through
  ``state_dir``: each firing atomically claims a marker file, so
  "crash the worker once, then let the retry succeed" holds across
  kill-and-requeue — which is exactly what the chaos suite needs to
  prove recovery is fingerprint-identical.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.errors import ConfigurationError, FaultInjectedError

#: Environment variable carrying the active plan to child processes.
#: The value is either the plan's JSON or ``@/path/to/plan.json``.
FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds a rule may inject.
FAULT_KINDS = ("crash", "hang", "io_error", "torn_write", "http_error")


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault: *where*, *what*, and *when exactly*.

    Attributes:
        site: fault-site name the rule arms (e.g. ``"sweep.cell"``).
        kind: one of :data:`FAULT_KINDS`.
        match: context filter — every key must be present in the
            site's context kwargs with an equal value (``{}`` matches
            every hit).  This is how a rule targets one shard or one
            seed out of a fleet.
        at_hit: fire starting at the Nth *matched* hit in a process
            (1 = the first).
        times: total firings the rule is allowed (across processes
            when the plan has a ``state_dir``, else per process).
            ``times=1`` models "fail once, recover on retry".
        exit_code: crash only — exit with this status instead of
            SIGKILL (``None`` = SIGKILL, the ungraceful default).
        seconds: hang only — how long to sleep (supervision should
            kill the worker long before this elapses).
        cut: torn_write only — fraction of the payload written before
            the process dies (0 < cut < 1).
        probability: chance a matched hit fires, drawn from the plan's
            seeded hash stream (1.0 = always).
    """

    site: str
    kind: str
    match: tuple = ()
    at_hit: int = 1
    times: int = 1
    exit_code: int | None = None
    seconds: float = 3600.0
    cut: float = 0.5
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(FAULT_KINDS)
            )
        if self.at_hit < 1:
            raise ConfigurationError("at_hit must be >= 1")
        if self.times < 1:
            raise ConfigurationError("times must be >= 1")
        if not 0.0 < self.cut < 1.0:
            raise ConfigurationError("cut must be in (0, 1)")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        # Normalise match to a sorted item tuple so rules hash, compare,
        # and serialize canonically regardless of insertion order.
        if isinstance(self.match, Mapping):
            object.__setattr__(
                self, "match", tuple(sorted(self.match.items()))
            )
        else:
            object.__setattr__(
                self, "match", tuple(sorted(tuple(self.match)))
            )

    def matches(self, context: Mapping) -> bool:
        return all(
            key in context and context[key] == value
            for key, value in self.match
        )

    def to_dict(self) -> dict:
        data = {
            "site": self.site,
            "kind": self.kind,
            "match": {key: value for key, value in self.match},
            "at_hit": self.at_hit,
            "times": self.times,
            "seconds": self.seconds,
            "cut": self.cut,
            "probability": self.probability,
        }
        if self.exit_code is not None:
            data["exit_code"] = self.exit_code
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            site=data["site"],
            kind=data["kind"],
            match=dict(data.get("match", {})),
            at_hit=data.get("at_hit", 1),
            times=data.get("times", 1),
            exit_code=data.get("exit_code"),
            seconds=data.get("seconds", 3600.0),
            cut=data.get("cut", 0.5),
            probability=data.get("probability", 1.0),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A replayable set of fault rules plus the seed that drives them.

    Attributes:
        rules: the rules, in arming order (rule index is part of the
            deterministic identity used for budgets and RNG draws).
        seed: drives probabilistic rules; two activations of the same
            plan fire identically.
        state_dir: directory for cross-process firing budgets; when
            set, every firing claims a marker file there atomically,
            so ``times`` bounds firings across a whole supervision
            tree.  ``None`` keeps budgets per process.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    state_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data: dict = {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.state_dir is not None:
            data["state_dir"] = self.state_dir
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            ),
            seed=data.get("seed", 0),
            state_dir=data.get("state_dir"),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Install this plan as the process-global injector **and**
        export it to :data:`FAULTS_ENV` so child processes inherit it."""
        global _injector, _env_checked
        os.environ[FAULTS_ENV] = self.to_json()
        _injector = _FaultInjector(self)
        _env_checked = True

    def scoped(self) -> "_ScopedPlan":
        """Context manager: activate on enter, fully undo on exit
        (environment and in-process injector restored) — the shape
        every chaos test uses."""
        return _ScopedPlan(self)


class _ScopedPlan:
    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._saved: str | None = None

    def __enter__(self) -> FaultPlan:
        self._saved = os.environ.get(FAULTS_ENV)
        self.plan.activate()
        return self.plan

    def __exit__(self, *exc_info) -> None:
        deactivate_faults()
        if self._saved is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = self._saved


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
def _unit_draw(seed: int, rule_index: int, hit: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (rule, hit)."""
    digest = hashlib.blake2b(
        f"{seed}:{rule_index}:{hit}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class _FaultInjector:
    """Evaluates the active plan at every fault-site hit."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site: dict[str, list[tuple[int, FaultRule]]] = {}
        for index, rule in enumerate(plan.rules):
            self._by_site.setdefault(rule.site, []).append((index, rule))
        self._matched: dict[int, int] = {}
        self._fired: dict[int, int] = {}

    def hit(self, site: str, context: dict) -> None:
        for index, rule in self._by_site.get(site, ()):
            if not rule.matches(context):
                continue
            hit = self._matched.get(index, 0) + 1
            self._matched[index] = hit
            if hit < rule.at_hit:
                continue
            if (
                rule.probability < 1.0
                and _unit_draw(self.plan.seed, index, hit)
                >= rule.probability
            ):
                continue
            if not self._claim(index, rule):
                continue
            self._fire(rule, site, context)

    def _claim(self, index: int, rule: FaultRule) -> bool:
        """Take one firing from the rule's budget; False = exhausted."""
        if self.plan.state_dir is None:
            fired = self._fired.get(index, 0)
            if fired >= rule.times:
                return False
            self._fired[index] = fired + 1
            return True
        state = Path(self.plan.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        for firing in range(rule.times):
            marker = state / f"rule{index}.fire{firing}"
            try:
                fd = os.open(
                    marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue
            os.write(fd, f"pid={os.getpid()}\n".encode())
            os.close(fd)
            return True
        return False

    def _fire(self, rule: FaultRule, site: str, context: dict) -> None:
        if rule.kind == "io_error":
            raise OSError(
                errno.EIO, f"injected IO fault at {site}"
            )
        if rule.kind == "http_error":
            raise ConnectionError(
                f"injected transient connection failure at {site}"
            )
        if rule.kind == "hang":
            global _hanging
            _hanging = True
            try:
                time.sleep(rule.seconds)
            finally:
                _hanging = False
            return
        if rule.kind == "torn_write":
            self._torn_write(rule, site, context)
            return
        # crash: die the way real workers die — no cleanup, no
        # handlers.  SIGKILL by default; exit_code models exit-N.
        if rule.exit_code is not None:
            os._exit(rule.exit_code)
        os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _torn_write(rule: FaultRule, site: str, context: dict) -> None:
        """Write a prefix of the payload the site was about to write,
        force it to disk, and die — the crash-mid-write failure the
        torn-tail recovery paths must survive.

        The site supplies ``path`` and ``data``, the exact bytes it was
        about to write.
        """
        path = context.get("path")
        data = context.get("data")
        if path is None or data is None:
            raise FaultInjectedError(
                f"torn_write at {site} needs 'path' and 'data' in the "
                "site context"
            )
        cut = max(1, int(len(data) * rule.cut))
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, data[:cut])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


#: Module state: the active injector, whether the environment has been
#: consulted, and whether a hang fault is currently sleeping (used by
#: supervision heartbeats to go silent, exactly as a wedged process
#: would).
_injector: _FaultInjector | None = None
_env_checked = False
_hanging = False


def fault_site(site: str, **context) -> None:
    """Declare a fault site; injects when the active plan arms it.

    The fault-free fast path is one global load and a ``None`` check —
    cheap enough for hot paths like WAL appends and spill flushes.
    """
    if _injector is None:
        if _env_checked or FAULTS_ENV not in os.environ:
            return
        _load_from_env()
        if _injector is None:
            return
    _injector.hit(site, context)


def _load_from_env() -> None:
    """Install the plan :data:`FAULTS_ENV` carries, if any.

    An unreadable ``@file`` or a malformed plan raises
    :class:`~repro.errors.ConfigurationError` and leaves the variable
    unconsumed, so every later site hit reports it again instead of
    running fault-free.
    """
    global _injector, _env_checked
    payload = os.environ.get(FAULTS_ENV, "")
    if payload.startswith("@"):
        try:
            payload = Path(payload[1:]).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan file {payload[1:]!r} named by "
                f"{FAULTS_ENV}: {exc}"
            ) from exc
    if payload:
        try:
            plan = FaultPlan.from_json(payload)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(
                f"bad fault plan JSON in {FAULTS_ENV}: {exc}"
            ) from exc
        _injector = _FaultInjector(plan)
    _env_checked = True


def active_plan() -> FaultPlan | None:
    """The plan currently installed in this process, if any."""
    if _injector is None and not _env_checked:
        _load_from_env()
    return _injector.plan if _injector is not None else None


def deactivate_faults() -> None:
    """Remove the in-process injector and stop consulting the
    environment (until a new plan is activated)."""
    global _injector, _env_checked
    _injector = None
    _env_checked = True


def reset_faults() -> None:
    """Forget everything, including the environment check — the next
    :func:`fault_site` call re-reads :data:`FAULTS_ENV` (what a forked
    child effectively does on its first hit)."""
    global _injector, _env_checked, _hanging
    _injector = None
    _env_checked = False
    _hanging = False


def hang_active() -> bool:
    """True while an injected hang fault is sleeping in this process.

    Supervision heartbeat threads consult this to stop touching their
    heartbeat file during a hang, so an injected hang is observably
    identical to a genuinely wedged worker."""
    return _hanging
