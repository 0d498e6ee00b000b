"""Honey-account provisioning.

Mirrors the manual setup in Section 3.2 of the paper: create the webmail
account under a persona with a popular name, populate it with the remapped
corporate corpus, point its send-from address at the sinkhole, disable the
suspicious-login filter (Google did this for the authors), and hide the
monitoring script in a spreadsheet with a 10-minute trigger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.groups import GroupSpec
from repro.core.script import HoneyMonitorScript, NotificationSink
from repro.core.sinkhole import SINKHOLE_ADDRESS
from repro.corpus.enron import CorpusGenerator
from repro.corpus.identity import HoneyIdentity, IdentityFactory
from repro.corpus.mapping import CorpusMapper, MappingConfig
from repro.sim.clock import minutes
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.appsscript import AppsScriptRuntime
from repro.webmail.mailbox import Folder
from repro.webmail.service import WebmailService

_PASSWORD_ALPHABET = "abcdefghjkmnpqrstuvwxyz23456789"


@dataclass
class HoneyAccount:
    """A fully provisioned honey account."""

    identity: HoneyIdentity
    account: WebmailAccount
    group: GroupSpec
    script: HoneyMonitorScript
    script_installation_id: int
    seeded_email_count: int

    @property
    def address(self) -> str:
        return self.account.address

    @property
    def leaked_credentials(self) -> Credentials:
        """The credentials as originally leaked (pre-hijack)."""
        return Credentials(self.account.address, self._leaked_password)

    # set by the factory right after construction
    _leaked_password: str = ""


class HoneyAccountFactory:
    """Creates and instruments honey accounts on the webmail service.

    Args:
        service: the provider to create accounts on.
        runtime: the Apps Script runtime scripts are installed into.
        sink: notification sink (the monitor's notification store).
        rng: randomness for passwords, corpus generation and mapping.
        emails_per_account: seeded mailbox size (min, max) range.
        scan_period: script trigger period; the paper uses 10 minutes.
    """

    def __init__(
        self,
        service: WebmailService,
        runtime: AppsScriptRuntime,
        sink: NotificationSink,
        rng: random.Random,
        *,
        emails_per_account: tuple[int, int] = (150, 250),
        scan_period: float = minutes(10),
        mapping_config: MappingConfig | None = None,
    ) -> None:
        if emails_per_account[0] < 1 or emails_per_account[0] > emails_per_account[1]:
            raise ValueError("emails_per_account must be a valid (min, max)")
        self._service = service
        self._runtime = runtime
        self._sink = sink
        self._rng = rng
        self._identity_factory = IdentityFactory(rng)
        self._emails_per_account = emails_per_account
        self._scan_period = scan_period
        self._mapping_config = mapping_config or MappingConfig()

    def _make_password(self) -> str:
        return "".join(
            self._rng.choice(_PASSWORD_ALPHABET) for _ in range(10)
        )

    def _seed_mailbox(
        self, account: WebmailAccount, identity: HoneyIdentity
    ) -> int:
        """Populate the inbox with the remapped synthetic corpus."""
        count = self._rng.randint(*self._emails_per_account)
        generator = CorpusGenerator(self._rng)
        mapper = CorpusMapper(identity, self._mapping_config, self._rng)
        add = account.mailbox.add
        for message in mapper.map_mailbox(generator.generate_mailbox(count)):
            add(Folder.INBOX, message)
        return count

    def provision(
        self,
        group: GroupSpec,
        *,
        script_execution_cost: float = 0.005,
        observe: bool = True,
    ) -> HoneyAccount:
        """Create, seed, and instrument one honey account for ``group``.

        ``observe=False`` provisions the account fully — identity,
        password, seeded mailbox, monitoring script object — but skips
        the script's runtime installation (``script_installation_id``
        is ``-1``).  Sharded runs use it for accounts owned by *other*
        shards: the account must exist with exactly the RNG draws the
        serial run spends on it (so every later draw lines up), but its
        scan triggers must not burn simulation time in this process.
        """
        identity = self._identity_factory.create(
            group.location_hint.home_region
        )
        password = self._make_password()
        account = self._service.create_account(
            Credentials(identity.address, password), identity.full_name
        )
        account.send_from_override = SINKHOLE_ADDRESS
        account.suspicious_login_filter = False  # disabled by the provider
        seeded = self._seed_mailbox(account, identity)
        # Seeding happens before the experiment starts; the monitoring
        # script must not report historical state as fresh changes, so
        # it starts from the cursor past the seeded changelog.
        _, cursor = account.mailbox.changes_since(0)
        script = HoneyMonitorScript(
            account, self._sink, execution_cost=script_execution_cost
        )
        script._cursor = cursor  # start monitoring from "now"
        honey = HoneyAccount(
            identity=identity,
            account=account,
            group=group,
            script=script,
            script_installation_id=-1,
            seeded_email_count=seeded,
        )
        honey._leaked_password = password
        if observe:
            self.install_script(honey)
        return honey

    def install_script(self, honey: HoneyAccount) -> int:
        """Install the account's monitoring script on the runtime.

        Draw-free, so callers may defer it past the provisioning loop
        (sharded runs install only for owned accounts) without
        perturbing any RNG stream.
        """
        honey.script_installation_id = self._runtime.install(
            honey.address,
            honey.script,
            period=self._scan_period,
            start_delay=self._scan_period,
        )
        return honey.script_installation_id
