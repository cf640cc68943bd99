//! # popper-orchestra
//!
//! Multi-node orchestration — the "Ansible slot" of the Popper toolkit
//! (§Toolkit, *Multi-node Orchestration*): "a tool that automatically
//! manages binaries, updates packages across machines and drives the
//! end-to-end execution of the experiment".
//!
//! * [`inventory`] — hosts, groups and per-host variables, loaded from
//!   PML (the `vars.pml` / inventory files of a Popperized experiment).
//! * [`playbook`] — plays and tasks with `when:` guards, `register:`
//!   result capture and `{{ var }}` templating, loaded from PML
//!   (`setup.pml` in the paper's Listing 1 is one of these).
//! * [`modules`] — the task modules: `setup` (fact gathering), `package`,
//!   `copy`, `command`, `service`, `fetch`, `set_fact`, `assert_that`.
//!   Modules act on a per-host [`modules::HostState`] — the model of a
//!   managed machine.
//! * [`executor`] — runs a playbook against an inventory, executing each
//!   task across the selected hosts *in parallel* (one
//!   `std::thread::scope` thread per host), collecting an auditable
//!   per-task report; each host thread records its task span straight
//!   into the caller's trace sink.

pub mod executor;
pub mod inventory;
pub mod modules;
pub mod playbook;
pub mod shardworld;

pub use executor::{run_playbook, HostReport, PlaybookReport, TaskStatus};
pub use shardworld::{run_sharded, run_sharded_chaos, ShardedOrchestraChaosReport, ShardedOrchestraConfig, ShardedOrchestraReport};
pub use inventory::{Host, Inventory};
pub use modules::HostState;
pub use playbook::{Play, Playbook, Task};
