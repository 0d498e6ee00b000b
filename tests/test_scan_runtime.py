"""Event-driven Apps Script scans on a tickless clock.

The runtime executes a honey script only when its mailbox changed, its
heartbeat is due or its account's quota can trip, and a cadence fires
only at grid ticks where some script has work; a tripped account's
pollers are parked until the quota window resets.  Skipping every
other run and tick must be invisible.  This module pins that three
ways:

* the committed row-level golden (``tests/golden/run_rows.json``):
  serial, sharded, spilled and checkpoint-resumed runs (resumed on and
  off the scan grid, once inside a parked window) observe exactly the
  rows, events and quota trips the per-tick polling runtime did;
* a property test against :class:`ReferencePoller`, a naive per-tick
  poller with one trigger per installation that charges and runs every
  script on every tick, over generated mailbox changes, blocks, heavy
  and light costs and cadences (every script is installed at t=0, as
  honey accounts are set up before the measurement starts).  Both
  notify on the first refused charge of each quota window;
* unit tests of the wake conditions themselves.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.envelope import RunResult, run_scenario
from repro.core.experiment import Experiment
from repro.core.notifications import NotificationKind
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
    scenario = run_rows.scenario_for(case)
    experiment = Experiment.from_scenario(scenario, **kwargs).build()
    mailboxes = run_rows.mailbox_digest(experiment)
    run = RunResult.from_experiment(scenario, experiment.run(), 0.0)
    return run_rows.observed(
        run.dataset,
        run.events_executed,
        experiment.runtime.quota_trips,
        experiment.monitor.scrape_log_store,
        mailboxes,
    )


class TestRowGolden:
    def test_fast_serial(self):
        assert _serial("fast-1") == run_rows.load_golden()["fast-1"]

    def test_paper_default_serial(self):
        case = "paper_default-2016"
        assert _serial(case) == run_rows.load_golden()[case]

    def test_fast_spilled(self, tmp_path):
        observed = _serial("fast-1", spill_dir=tmp_path)
        assert observed == run_rows.load_golden()["fast-1"]

    # Day 40.0 is a 2-hour tick; by day 40.3, off the grid, both quota
    # accounts have tripped for the day, so the checkpoint holds a
    # cadence asleep with its pollers parked.
    @pytest.mark.parametrize("day", [40.0, 40.3])
    def test_fast_checkpoint_resumed(self, tmp_path, day):
        from repro.service.checkpoint import (
            load_experiment_checkpoint,
            save_experiment_checkpoint,
        )

        scenario = run_rows.scenario_for("fast-1")
        experiment = Experiment.from_scenario(scenario)
        mailboxes = run_rows.mailbox_digest(experiment)
        experiment.advance_to_day(day)
        if day == 40.3:
            assert len(experiment.runtime._tripped) == 2
        path = save_experiment_checkpoint(
            experiment, tmp_path / "ck.pkl", scenario=scenario,
            completed_day=day,
        )
        del experiment
        resumed = load_experiment_checkpoint(path)["experiment"]
        result = resumed.finish_measurement()
        observed = run_rows.observed(
            result.dataset, result.events_executed,
            resumed.runtime.quota_trips, resumed.monitor.scrape_log_store,
            mailboxes,
        )
        assert observed == run_rows.load_golden()["fast-1"]

    def test_fast_two_shards_observe_the_serial_rows(self):
        run = run_scenario(run_rows.scenario_for("fast-1").with_shards(2), jobs=1)
        observed = run_rows.observed(run.dataset, 0, 0)
        golden = run_rows.load_golden()["fast-1"]
        for store in (
            "notifications", "accesses", "defense_actions", "failure_log",
            "all_email_texts",
        ):
            assert observed[store] == golden[store]


# ----------------------------------------------------------------------
# the reference implementation: per-tick polling
# ----------------------------------------------------------------------
class ReferencePoller:
    """One trigger per installation; every tick charges the quota and
    runs the script, whatever the script has to do.  The notifier hears
    the first refused charge of each quota window."""

    def __init__(self, sim, *, quota_notifier, daily_quota_seconds=90.0):
        self._sim = sim
        self._notifier = quota_notifier
        self._limit = daily_quota_seconds
        self._quotas: dict[str, ScriptQuota] = {}
        self._notified_windows: dict[str, float] = {}
        self.quota_trips = 0

    def install(self, address, script, *, period, start_delay=None) -> None:
        self._quotas.setdefault(address, ScriptQuota(self._limit))
        PeriodicProcess(
            self._sim, period, partial(self._fire, address, script),
            start_delay=start_delay,
        )

    def _fire(self, address, script) -> None:
        now = self._sim.now
        quota = self._quotas[address]
        try:
            quota.charge(script.execution_cost, now)
        except QuotaExceededError:
            self.quota_trips += 1
            if self._notified_windows.get(address) != quota.window_start:
                self._notified_windows[address] = quota.window_start
                self._notifier(address, now)
            return
        script.run(now)


# ----------------------------------------------------------------------
# generated worlds
# ----------------------------------------------------------------------
HORIZON = days(3.5)  # four quota windows
#: Two periods that do not divide a day (7 minutes, 1000/3 s) and four
#: that do.
PERIODS = (minutes(7), 1000 / 3, minutes(10), minutes(20), hours(1), hours(2))
START_DELAYS = (None, minutes(5), 37.5, 1000 / 7)
#: Light; medium (light alone at a 10-minute cadence, heavy in pairs);
#: heavy at 10 minutes or faster only.
LIGHT_COSTS = (0.005, 0.6, 1.0)
#: Heavy: the 90 s quota refuses the fourth, third, third and second
#: run of a window (45 + 45 sits right at the limit).
HEAVY_COSTS = (30.0, 40.0, 45.0, 60.0)
CHANGE_KINDS = ("read", "star", "draft", "receive")


def _grid(spec: dict) -> list[float]:
    """The tick times of an install's trigger up to the horizon, stepped
    as its process steps them."""
    tick = spec["period"] if spec["start_delay"] is None else spec["start_delay"]
    ticks = []
    while tick <= HORIZON:
        ticks.append(tick)
        tick += spec["period"]
    return ticks


@st.composite
def worlds(draw):
    periods = draw(
        st.lists(st.sampled_from(PERIODS), min_size=1, max_size=3, unique=True)
    )
    accounts = draw(st.integers(1, 4))

    def install(costs):
        return st.fixed_dictionaries({
            "account": st.integers(0, accounts - 1),
            "period": st.sampled_from(periods),
            "start_delay": st.sampled_from(START_DELAYS),
            "cost": st.sampled_from(costs),
            "heartbeat": st.sampled_from((days(1), hours(6))),
        })

    installs = draw(st.lists(
        install(LIGHT_COSTS + HEAVY_COSTS), min_size=1, max_size=6
    ))
    heavy = draw(st.lists(install(HEAVY_COSTS), max_size=3))
    installs = draw(st.permutations(installs + heavy))
    # Half the instants land exactly on a tick of some trigger.
    ticks = sorted({tick for spec in installs for tick in _grid(spec)})
    anywhere = st.floats(0.0, HORIZON, allow_nan=False)
    instant = st.one_of(st.sampled_from(ticks), anywhere) if ticks else anywhere
    changes = draw(st.lists(
        st.tuples(instant, st.integers(0, accounts - 1),
                  st.sampled_from(CHANGE_KINDS), st.integers(0, 4)),
        max_size=25,
    ))
    blocks = draw(st.lists(
        st.tuples(instant, st.integers(0, accounts - 1)), max_size=2,
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

    for spec in plan["installs"]:
        account = accounts[spec["account"]]
        script = HoneyMonitorScript(
            account, sink, heartbeat_period=spec["heartbeat"],
            execution_cost=spec["cost"],
        )
        script._cursor = account.mailbox.changelog_length
        runtime.install(
            account.address, script, period=spec["period"],
            start_delay=spec["start_delay"],
        )

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

    for at, account, kind, pick in plan["changes"]:
        sim.schedule_at(at, partial(change, accounts[account], kind, pick))
    for at, account in plan["blocks"]:
        sim.schedule_at(at, partial(accounts[account].block, "tos", at))
    sim.run_until(HORIZON)
    return {"rows": rows, "notices": notices, "trips": runtime.quota_trips}


def _install_spec(**overrides) -> dict:
    spec = {
        "account": 0, "period": minutes(10), "start_delay": None,
        "cost": 0.005, "heartbeat": days(1),
    }
    spec.update(overrides)
    return spec


def _world(accounts: int, *installs: dict, changes=(), blocks=()) -> dict:
    return {
        "accounts": accounts, "installs": list(installs),
        "changes": list(changes), "blocks": list(blocks),
    }


#: Corners fifty generated examples reach too rarely to pin:
#: name -> (plan, whether the reference trips the quota).
NAMED_WORLDS = {
    # Two light scripts, then a heavy one: its install lifts the
    # account's summed quota bound over the limit, so the light scripts
    # already on the account must poll (and charge) from their first
    # tick too.
    "light account turns heavy": (_world(
        1,
        _install_spec(cost=0.6),
        _install_spec(cost=0.6, period=minutes(20)),
        _install_spec(cost=45.0, period=hours(2)),
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
    # The heavy account trips at 00:30 and is parked for the rest of
    # the window when the provider blocks it.
    "a parked account is blocked": (_world(
        2, _install_spec(cost=40.0), _install_spec(account=1),
        blocks=[(hours(5), 0)],
    ), True),
    # While the heavy account's pollers are parked, its own mailbox
    # changes (reported after the window resets), and the light
    # account on the same cadence changes, once at a tick's instant:
    # the cadence fires, the parked poller counts a trip, the light
    # script runs.
    "a dirty mark lands while the account's pollers are parked": (_world(
        2, _install_spec(cost=40.0), _install_spec(account=1),
        changes=[
            (hours(5), 0, "read", 1),
            (hours(7) + 1.0, 1, "star", 2),
            (hours(8), 1, "draft", 0),
        ],
    ), True),
    # Two heavy accounts on different cadences, one sharing its
    # cadence with a light script; one trips at once, one after a run.
    "heavy accounts on shared and separate cadences": (_world(
        3,
        _install_spec(cost=60.0),
        _install_spec(account=1),
        _install_spec(account=2, cost=95.0, period=minutes(7),
                      start_delay=37.5),
    ), True),
    # Three cadences' first ticks share one instant: the installs run
    # there in install order, as separate triggers would run them.
    "cadences share a first instant": (_world(
        3,
        _install_spec(start_delay=minutes(5)),
        _install_spec(account=1, period=minutes(20), start_delay=minutes(5)),
        _install_spec(account=2, start_delay=minutes(5)),
    ), False),
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

    def test_idle_scripts_fire_only_for_heartbeats(self, sim):
        # Three light scripts that never see a change: the cadence
        # fires at the first tick and at each daily heartbeat, and
        # every other tick of the 30 days passes idle but is counted.
        rows = []
        runtime = AppsScriptRuntime(sim)
        for index in range(3):
            account = WebmailAccount(
                credentials=Credentials(f"h{index}@x.example", "pw123456"),
                display_name=f"H{index}",
            )
            runtime.install(
                account.address, HoneyMonitorScript(account, rows.append),
                period=minutes(10),
            )
        sim.run_until(days(30))
        heartbeats = {
            row.timestamp for row in rows
            if row.kind is NotificationKind.HEARTBEAT
        }
        assert len(heartbeats) == 30
        assert sim.events_fired <= len(heartbeats) + 1
        assert sim.events_fired + runtime.ticks_skipped == days(30) // minutes(10)

    def test_heavy_script_polls_every_tick(self, sim, honey):
        account, _ = honey
        runtime, script = self._install(
            sim, account, [], execution_cost=40.0
        )
        sim.run_until(hours(1))
        # Two runs fit the 90 s budget; the other four ticks trip it.
        assert (script.scan_count, runtime.quota_trips) == (2, 4)

    def test_tripped_account_parks_until_the_window_resets(self, sim, honey):
        account, _ = honey
        notices = []
        runtime = AppsScriptRuntime(
            sim, quota_notifier=lambda address, now: notices.append(now)
        )
        script = HoneyMonitorScript(account, [].append, execution_cost=40.0)
        runtime.install(account.address, script, period=minutes(10))
        sim.run_until(days(2) + minutes(5))
        # Per window (from t=0, then from the reset tick at day 1): two
        # runs, one refused tick that fires and notifies, then parked
        # ticks that only count, up to the run at the day-2 reset.
        assert script.scan_count == 5
        assert notices == [minutes(30), days(1) + minutes(20)]
        assert runtime.quota_trips == days(2) // minutes(10) - 5
        assert sim.events_fired == 7
