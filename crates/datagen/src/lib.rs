//! # datagen — synthetic relations for hash-join experiments
//!
//! The paper evaluates on synthetic relations of `<record-id, key>` pairs
//! (two four-byte integer attributes, Section 5.1), following Blanas et al.:
//!
//! * the default pair is 16 M build tuples joined with 16 M probe tuples with
//!   uniformly distributed keys;
//! * skewed datasets duplicate a fraction *s* of the key values
//!   (low-skew *s* = 10 %, high-skew *s* = 25 %);
//! * join selectivity (the fraction of probe tuples that find a match) is
//!   varied between 12.5 % and 100 % in Figure 15.
//!
//! This crate reproduces those generators deterministically (seeded), plus
//! the relation container the experiments join.

#![warn(missing_docs)]

pub mod checksum;
pub(crate) mod generator;
pub mod relation;
pub mod rng;
pub mod tablefile;
pub mod workload;

pub use checksum::checksum64;
pub use generator::{generate_pair, DataGenConfig, KeyDistribution};
pub use relation::{Relation, TUPLE_BYTES};
pub use rng::SmallRng;
pub use tablefile::{generate_build_table, generate_probe_table, FileTableSpec, TableFileReader};
pub use workload::Workload;
