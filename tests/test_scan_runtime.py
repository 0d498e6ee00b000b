"""Event-driven Apps Script scans.

The runtime executes a honey script only when its mailbox changed, its
heartbeat is due or its account's quota can trip.  Skipping every other
run must be invisible.  This module pins that three ways:

* the committed row-level golden (``tests/golden/run_rows.json``):
  serial, sharded, spilled and checkpoint-resumed runs observe exactly
  the rows, events and quota trips the per-tick polling runtime did;
* a property test against :class:`ReferencePoller`, a naive per-tick
  poller with one trigger per installation that charges and runs every
  script on every tick, over generated mailbox changes, blocks,
  uninstalls, mid-run installs, heavy and light costs and cadences;
* unit tests of the wake conditions themselves.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.envelope import run_scenario
from repro.core.script import HoneyMonitorScript
from repro.errors import QuotaExceededError
from repro.sim.clock import days, hours, minutes
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.appsscript import AppsScriptRuntime, ScriptQuota
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import run_rows  # noqa: E402


# ----------------------------------------------------------------------
# the committed row-level golden
# ----------------------------------------------------------------------
def _serial(case: str, **kwargs) -> dict:
    runtimes = []
    run = run_scenario(
        run_rows.scenario_for(case),
        on_built=lambda experiment: runtimes.append(experiment.runtime),
        **kwargs,
    )
    return run_rows.observed(
        run.dataset, run.events_executed, runtimes[0].quota_trips
    )


class TestRowGolden:
    def test_fast_serial(self):
        assert _serial("fast-1") == run_rows.load_golden()["fast-1"]

    def test_paper_default_serial(self):
        case = "paper_default-2016"
        assert _serial(case) == run_rows.load_golden()[case]

    def test_fast_spilled(self, tmp_path):
        from repro.telemetry import TelemetryBudget

        observed = _serial(
            "fast-1",
            telemetry_budget=TelemetryBudget.spill_all(spill_dir=str(tmp_path)),
        )
        assert observed == run_rows.load_golden()["fast-1"]

    def test_fast_checkpoint_resumed(self, tmp_path):
        from repro.core.experiment import Experiment
        from repro.service.checkpoint import (
            load_experiment_checkpoint,
            save_experiment_checkpoint,
        )

        scenario = run_rows.scenario_for("fast-1")
        experiment = Experiment.from_scenario(scenario)
        experiment.advance_to_day(40.0)
        path = save_experiment_checkpoint(
            experiment, tmp_path / "ck.pkl", scenario=scenario,
            completed_day=40.0,
        )
        del experiment
        resumed = load_experiment_checkpoint(path)["experiment"]
        result = resumed.finish_measurement()
        observed = run_rows.observed(
            result.dataset, result.events_executed,
            resumed.runtime.quota_trips,
        )
        assert observed == run_rows.load_golden()["fast-1"]

    def test_fast_two_shards_observe_the_serial_rows(self):
        run = run_scenario(run_rows.scenario_for("fast-1").with_shards(2), jobs=1)
        observed = run_rows.observed(run.dataset, 0, 0)
        golden = run_rows.load_golden()["fast-1"]
        for store in ("notifications", "accesses", "defense_actions"):
            assert observed[store] == golden[store]


# ----------------------------------------------------------------------
# the reference implementation: per-tick polling
# ----------------------------------------------------------------------
class ReferencePoller:
    """One trigger per installation; every tick charges the quota and
    runs the script, whatever the script has to do."""

    def __init__(self, sim, *, quota_notifier, daily_quota_seconds=90.0):
        self._sim = sim
        self._notifier = quota_notifier
        self._limit = daily_quota_seconds
        self._quotas: dict[str, ScriptQuota] = {}
        self._triggers: dict[int, PeriodicProcess] = {}
        self.quota_trips = 0

    def install(self, address, script, *, period, start_delay=None) -> int:
        self._quotas.setdefault(address, ScriptQuota(self._limit))
        installation_id = len(self._triggers) + 1
        self._triggers[installation_id] = PeriodicProcess(
            self._sim, period, partial(self._fire, address, script),
            start_delay=start_delay,
        )
        return installation_id

    def _fire(self, address, script) -> None:
        now = self._sim.now
        try:
            self._quotas[address].charge(script.execution_cost, now)
        except QuotaExceededError:
            self.quota_trips += 1
            self._notifier(address, now)
            return
        script.run(now)

    def uninstall(self, installation_id: int) -> None:
        self._triggers[installation_id].stop()


# ----------------------------------------------------------------------
# generated worlds
# ----------------------------------------------------------------------
HORIZON = days(2.5)
PERIODS = (minutes(10), minutes(20), hours(1), hours(2))
#: Light; medium (light alone at a 10-minute cadence, heavy in pairs);
#: heavy at 10 minutes only; heavy; heavy right at the limit (45 + 45).
COSTS = (0.005, 0.6, 1.0, 40.0, 45.0)
CHANGE_KINDS = ("read", "star", "draft", "receive")


@st.composite
def worlds(draw):
    periods = draw(
        st.lists(st.sampled_from(PERIODS), min_size=1, max_size=3, unique=True)
    )
    accounts = draw(st.integers(1, 3))

    def instant():
        # Half the instants land exactly on a tick of some cadence.
        on_tick = st.builds(
            lambda p, k: p * k, st.sampled_from(periods),
            st.integers(0, int(HORIZON // min(periods))),
        ).filter(lambda t: t <= HORIZON)
        anywhere = st.floats(0.0, HORIZON, allow_nan=False)
        return st.one_of(on_tick, anywhere)

    installs = draw(st.lists(
        st.fixed_dictionaries({
            "account": st.integers(0, accounts - 1),
            "period": st.sampled_from(periods),
            "start_delay": st.sampled_from((None, minutes(5))),
            "cost": st.sampled_from(COSTS),
            "heartbeat": st.sampled_from((days(1), hours(6))),
            "at": st.one_of(st.just(0.0), instant()),
            "uninstall_at": st.one_of(st.none(), instant()),
        }),
        min_size=1, max_size=6,
    ))
    changes = draw(st.lists(
        st.tuples(instant(), st.integers(0, accounts - 1),
                  st.sampled_from(CHANGE_KINDS), st.integers(0, 4)),
        max_size=25,
    ))
    blocks = draw(st.lists(
        st.tuples(instant(), st.integers(0, accounts - 1)), max_size=2,
    ))
    return {
        "accounts": accounts, "installs": installs,
        "changes": changes, "blocks": blocks,
    }


def _message(address: str, subject: str, folder_at: float) -> EmailMessage:
    return EmailMessage(
        sender_name="S", sender_address="s@x.example",
        recipient_addresses=(address,), subject=subject,
        body=f"body of {subject}", received_at=folder_at,
    )


def _simulate(plan: dict, runtime_cls) -> dict:
    """Run ``plan`` on a fresh world; return everything observable."""
    sim = Simulator()
    notices: list[tuple[str, float]] = []
    accounts: list[WebmailAccount] = []

    def notify(address: str, now: float) -> None:
        # The notice also reads a message in the next account, so a
        # script later in the same tick must see that change at once.
        notices.append((address, now))
        index = int(address[1:].split("@")[0])
        neighbour = accounts[(index + 1) % len(accounts)].mailbox
        seeded = neighbour.messages(Folder.INBOX)
        neighbour.mark_read(seeded[len(notices) % len(seeded)].message_id)

    runtime = runtime_cls(sim, quota_notifier=notify)
    rows: list[tuple] = []
    for index in range(plan["accounts"]):
        account = WebmailAccount(
            credentials=Credentials(f"h{index}@x.example", "pw123456"),
            display_name=f"H{index}",
        )
        for n in range(5):
            account.mailbox.add(
                Folder.INBOX, _message(account.address, f"seed {n}", -1.0)
            )
        accounts.append(account)

    def sink(record) -> None:
        rows.append((record.kind, record.account_address, record.timestamp,
                     record.message_id, record.subject, record.body_copy))

    installed: dict[int, int] = {}

    def install(index: int, spec: dict) -> None:
        account = accounts[spec["account"]]
        script = HoneyMonitorScript(
            account, sink, heartbeat_period=spec["heartbeat"],
            execution_cost=spec["cost"],
        )
        script._cursor = account.mailbox.changelog_length
        installed[index] = runtime.install(
            account.address, script, period=spec["period"],
            start_delay=spec["start_delay"],
        )

    def uninstall(index: int) -> None:
        if index in installed:
            runtime.uninstall(installed[index])

    def change(account, kind: str, pick: int) -> None:
        mailbox = account.mailbox
        seeded = [m.message_id for m in mailbox.messages(Folder.INBOX)]
        if kind == "read":
            mailbox.mark_read(seeded[pick % len(seeded)])
        elif kind == "star":
            mailbox.star(seeded[pick % len(seeded)])
        elif kind == "draft":
            mailbox.add(Folder.DRAFTS, _message("v@x.example", "draft", sim.now))
        else:
            mailbox.add(Folder.INBOX, _message(account.address, "new", sim.now))

    for index, spec in enumerate(plan["installs"]):
        if spec["at"] == 0.0:
            install(index, spec)
        else:
            sim.schedule_at(spec["at"], partial(install, index, spec))
        if spec["uninstall_at"] is not None:
            sim.schedule_at(spec["uninstall_at"], partial(uninstall, index))
    for at, account, kind, pick in plan["changes"]:
        sim.schedule_at(at, partial(change, accounts[account], kind, pick))
    for at, account in plan["blocks"]:
        sim.schedule_at(at, partial(accounts[account].block, "tos", at))
    sim.run_until(HORIZON)
    return {"rows": rows, "notices": notices, "trips": runtime.quota_trips}


def _install_spec(**overrides) -> dict:
    spec = {
        "account": 0, "period": minutes(10), "start_delay": None,
        "cost": 0.005, "heartbeat": days(1), "at": 0.0, "uninstall_at": None,
    }
    spec.update(overrides)
    return spec


def _world(accounts: int, *installs: dict) -> dict:
    return {
        "accounts": accounts, "installs": list(installs),
        "changes": [], "blocks": [],
    }


#: Corners fifty generated examples reach too rarely to pin:
#: name -> (plan, whether the reference trips the quota).
NAMED_WORLDS = {
    # Two light scripts, then a heavy one mid-day: its runs must see
    # the quota the light ones already used that day.
    "light account turns heavy": (_world(
        1,
        _install_spec(cost=0.6),
        _install_spec(cost=0.6, period=minutes(20)),
        _install_spec(cost=45.0, period=hours(2), at=hours(13)),
    ), True),
    # Each script alone stays under the limit; together they trip it.
    "two medium scripts share a quota": (_world(
        1, _install_spec(cost=0.6), _install_spec(cost=0.6),
    ), True),
    # One cadence, two heartbeat groups: both must beat on time.
    "two heartbeat groups": (_world(
        2, _install_spec(), _install_spec(account=1, heartbeat=hours(6)),
    ), False),
    # The heavy script's quota notice reads a message in the next
    # account, whose light script runs later in the same tick.
    "quota notice changes a later mailbox": (_world(
        2, _install_spec(cost=40.0), _install_spec(account=1),
    ), True),
}


class TestAgainstReferencePoller:
    @settings(
        max_examples=50, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=worlds())
    def test_same_rows_trips_and_notices(self, plan):
        expected = _simulate(plan, ReferencePoller)
        assert _simulate(plan, AppsScriptRuntime) == expected

    @pytest.mark.parametrize("name", sorted(NAMED_WORLDS))
    def test_named_world(self, name):
        plan, trips = NAMED_WORLDS[name]
        expected = _simulate(plan, ReferencePoller)
        assert (expected["trips"] > 0) == trips
        assert _simulate(plan, AppsScriptRuntime) == expected


# ----------------------------------------------------------------------
# wake conditions
# ----------------------------------------------------------------------
@pytest.fixture()
def honey():
    account = WebmailAccount(
        credentials=Credentials("honey@x.example", "pw123456"),
        display_name="Honey",
    )
    message = account.mailbox.add(
        Folder.INBOX, _message(account.address, "seed", -1.0)
    )
    return account, message


class TestWakeConditions:
    def _install(self, sim, account, rows, **script_kwargs):
        runtime = AppsScriptRuntime(sim)
        script = HoneyMonitorScript(account, rows.append, **script_kwargs)
        script._cursor = account.mailbox.changelog_length
        runtime.install(account.address, script, period=minutes(10))
        return runtime, script

    def test_idle_script_runs_only_for_heartbeats(self, sim, honey):
        account, _ = honey
        runtime, script = self._install(sim, account, [])
        sim.run_until(days(2) + minutes(10))
        # First tick (heartbeat due from -inf), then one per day.
        assert runtime.runs_executed == script.scan_count == 3

    def test_mailbox_change_wakes_the_next_tick(self, sim, honey):
        account, message = honey
        rows = []
        runtime, _ = self._install(sim, account, rows)
        sim.schedule_at(
            minutes(25), lambda: account.mailbox.mark_read(message.message_id)
        )
        sim.run_until(hours(1))
        assert [r.timestamp for r in rows] == [minutes(10), minutes(30)]
        assert runtime.runs_executed == 2

    def test_blocked_script_is_parked(self, sim, honey):
        account, message = honey
        runtime, script = self._install(sim, account, [])
        sim.schedule_at(hours(1), lambda: account.block("tos", hours(1)))
        sim.schedule_at(
            hours(2), lambda: account.mailbox.mark_read(message.message_id)
        )
        sim.run_until(days(3))
        # The first tick, then the change wake that found the block.
        assert script.scan_count == 2
        assert account.mailbox._change_hooks == []

    def test_uninstall_drops_the_change_hook(self, sim, honey):
        account, _ = honey
        runtime, _ = self._install(sim, account, [])
        assert len(account.mailbox._change_hooks) == 1
        runtime.uninstall_account(account.address)
        assert account.mailbox._change_hooks == []
        assert sim.pending_events == 0  # the batch tick is cancelled too

    def test_heavy_script_polls_every_tick(self, sim, honey):
        account, _ = honey
        runtime, script = self._install(
            sim, account, [], execution_cost=40.0
        )
        sim.run_until(hours(1))
        # Two runs fit the 90 s budget; the other four ticks trip it.
        assert (script.scan_count, runtime.quota_trips) == (2, 4)
