"""The paper's contribution: the honey webmail-account framework.

``repro.core`` implements the system Section 3 of the paper describes:

* honey-account provisioning and corpus seeding (``honeyaccount``);
* the hidden monitoring script with 10-minute scans and daily heartbeats
  (``script``) and its notification formats (``notifications``);
* the monitoring infrastructure — notification store and activity-page
  scraper (``monitor``) — plus the sinkhole mailserver (``sinkhole``);
* the Table 1 leak plan (``groups``);
* end-to-end experiment orchestration (``experiment``).

The analysis layer (``repro.analysis``) consumes only the records this
package produces, mirroring the authors' vantage point.
"""

from repro.core.groups import GroupSpec, LeakPlan, OutletKind, paper_leak_plan
from repro.core.honeyaccount import HoneyAccount, HoneyAccountFactory
from repro.core.monitor import MonitorInfrastructure, ScrapeOutcome
from repro.core.notifications import NotificationKind, NotificationRecord
from repro.core.records import ObservedDataset
from repro.core.script import HoneyMonitorScript
from repro.core.sinkhole import SinkholeMailServer
from repro.core.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
)

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupSpec",
    "HoneyAccount",
    "HoneyAccountFactory",
    "HoneyMonitorScript",
    "LeakPlan",
    "MonitorInfrastructure",
    "NotificationKind",
    "NotificationRecord",
    "ObservedDataset",
    "OutletKind",
    "ScrapeOutcome",
    "SinkholeMailServer",
    "paper_leak_plan",
]
