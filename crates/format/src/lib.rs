//! # popper-format
//!
//! Self-contained data formats used across the Popper reproduction:
//!
//! * [`Value`] — a JSON-like dynamic value with order-preserving maps.
//! * [`json`] — a strict JSON parser and writer for `Value`.
//! * [`pml`] — *Popper Markup Language*, an indentation-based YAML subset
//!   used for experiment configuration files (`vars.pml`, `setup.pml`,
//!   playbooks, CI pipelines).
//! * [`csv`] — RFC-4180-style CSV reading and writing.
//! * [`table`] — a small typed, columnar data table; the common currency
//!   between experiment results (`results.csv`), the monitor's time series
//!   and the Aver validation engine.
//! * [`sync`] — poison-recovering `lock`/`read`/`write`/`wait` over
//!   `std::sync`.
//!
//! Everything here is implemented from scratch: the approved offline crate
//! set does not include `serde_json`/`serde_yaml`, and hand-rolling these
//! keeps the dependency closure minimal while giving us components we can
//! property-test aggressively (round-trip laws, fuzzed inputs).

pub mod csv;
pub mod error;
pub mod json;
pub mod pml;
pub mod sync;
pub mod table;
pub mod value;

pub use error::{FormatError, Result};
pub use table::{Column, ColumnType, Row, Table};
pub use value::Value;
