"""Row-level golden for simulation runs: what each run observed.

Usage::

    PYTHONPATH=src python tests/golden/run_rows.py           # regenerate
    PYTHONPATH=src python tests/golden/run_rows.py --check   # compare
    PYTHONPATH=src python tests/golden/run_rows.py --check --cases fast-1

For every case it records sha256 digests of the notification, access
and defense stores and of the scrape-failure (lockout) log
(``to_json_dict()``, which decodes every field of every row in append
order), plus ``events_executed`` and the Apps Script runtimes'
``quota_trips``.  Serial cases also digest the monitor's scrape log
(one row per scraper visit: outcome and ``new_events``); a sharded run
keeps one scrape log per shard and merges none.  Any reordered,
missing or divergent row, an extra heap event or a moved quota trip
changes the golden.

Two more digests pin the seeded corpus itself: ``mailboxes`` hashes
every provisioned account's inbox as seeded, in provision order (id,
``repr(received_at)``, sender name and address, subject, body of each
message; a sharded run digests every shard's provisioning, since each
shard provisions the whole population), and ``all_email_texts`` hashes
the dataset's seeded-history texts, the input of the all-emails TF-IDF
document.

Each case runs in a fresh interpreter, so nothing process-global that
an earlier run touched can leak into a later one.

The committed ``run_rows.json`` is the oracle for scheduling work on
the scan runtime, the monitor's scrape path and the corpus generator:
such work must leave every entry unchanged.
Regenerate it ONLY for an accepted behaviour change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("run_rows.json")
SEED = 2016

#: case name -> (scenario recipe, seed, shards).
CASES: dict[str, tuple[str, int, int]] = {
    "fast-1": ("fast", 1, 1),
    "paper_default-2016": ("paper_default", SEED, 1),
    "defended200-2016": ("defended200", SEED, 1),
    "defended200-2016-shards2": ("defended200", SEED, 2),
}


def scenario_for(case: str):
    """The scenario a case runs (``defended200`` is ``scaled(200)``
    with the ``c3_defended`` defenses)."""
    from repro.api.registry import scenarios

    recipe, seed, shards = CASES[case]
    if recipe == "defended200":
        scenario = scenarios.get("scaled", n_accounts=200).with_defenses(
            *scenarios.get("c3_defended").defenses
        )
    else:
        scenario = scenarios.get(recipe)
    if shards > 1:
        scenario = scenario.with_shards(shards)
    return scenario.with_seed(seed)


def _digest(store) -> str:
    payload = json.dumps(store.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class MailboxDigest:
    """Running digest of seeded inboxes, fed one account at a time."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, honey) -> None:
        from repro.webmail.mailbox import Folder

        for message in honey.account.mailbox.messages(Folder.INBOX):
            row = [
                message.message_id, repr(message.received_at),
                message.sender_name, message.sender_address,
                message.subject, message.body,
            ]
            self._hash.update(json.dumps(row).encode() + b"\n")
        self._hash.update(b"--\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def mailbox_digest(experiment) -> str:
    """Provision ``experiment``'s accounts (a no-op once done) and
    digest their inboxes before anything runs."""
    digest = MailboxDigest()
    for honey in experiment.provision_accounts():
        digest.add(honey)
    return digest.hexdigest()


def observed(
    dataset,
    events_executed: int,
    quota_trips: int,
    scrape_log=None,
    mailboxes: str | None = None,
) -> dict:
    """The golden entry for one finished run; ``scrape_log`` is the
    monitor's scrape-log store (serial runs only) and ``mailboxes`` a
    :class:`MailboxDigest` hex digest."""
    texts = json.dumps(dataset.all_email_texts, sort_keys=True)
    entry = {
        "notifications": _digest(dataset.notification_store),
        "accesses": _digest(dataset.access_store),
        "defense_actions": _digest(dataset.defense_store),
        "failure_log": _digest(dataset.failure_log),
        "all_email_texts": hashlib.sha256(texts.encode()).hexdigest(),
        "events_executed": events_executed,
        "quota_trips": quota_trips,
    }
    if scrape_log is not None:
        entry["scrape_log"] = _digest(scrape_log)
    if mailboxes is not None:
        entry["mailboxes"] = mailboxes
    return entry


def collect(cls) -> list:
    """Keep every instance of ``cls`` built from now on (sharded runs
    build one Apps Script runtime and one monitor per shard)."""
    found: list = []
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        found.append(self)

    cls.__init__ = __init__
    return found


def digest_provisioning(digest: MailboxDigest) -> None:
    """Feed every account provisioned from now on into ``digest`` as
    soon as it is seeded."""
    from repro.core.honeyaccount import HoneyAccountFactory

    original = HoneyAccountFactory.provision

    def provision(self, *args, **kwargs):
        honey = original(self, *args, **kwargs)
        digest.add(honey)
        return honey

    HoneyAccountFactory.provision = provision


def measure(case: str) -> dict:
    """Run one case in this process (shards in-process, ``jobs=1``)."""
    from repro.api.envelope import run_scenario
    from repro.core.monitor import MonitorInfrastructure
    from repro.webmail.appsscript import AppsScriptRuntime

    runtimes = collect(AppsScriptRuntime)
    monitors = collect(MonitorInfrastructure)
    mailboxes = MailboxDigest()
    digest_provisioning(mailboxes)
    run = run_scenario(scenario_for(case), jobs=1)
    serial = CASES[case][2] == 1
    return observed(
        run.dataset,
        run.events_executed,
        sum(runtime.quota_trips for runtime in runtimes),
        monitors[0].scrape_log_store if serial else None,
        mailboxes.hexdigest(),
    )


def measure_isolated(case: str) -> dict:
    """:func:`measure` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, __file__, "--measure", case],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed golden")
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated subset of cases")
    parser.add_argument("--measure", metavar="CASE",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure), sort_keys=True))
        return 0
    cases = [case for case in args.cases.split(",") if case]
    results = {case: measure_isolated(case) for case in cases}
    if args.check:
        golden = load_golden()
        failed = [case for case in cases if results[case] != golden[case]]
        for case in cases:
            print(f"{case}: {'DIFFERS' if case in failed else 'ok'}")
        return 1 if failed else 0
    GOLDEN_PATH.write_text(
        json.dumps({"cases": results}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
